//! The Input Parser: user-provided configuration for the Data Semantic
//! Mapper.
//!
//! The paper: "This component reads the user-provided configuration and
//! parameters for initialization. For example, the location to store the
//! recorded statistics, the page size to record, the number of I/O
//! operations to skip, and whether to turn on/off I/O tracing. This
//! flexibility allows users to adjust the data collection granularity,
//! reducing storage overhead based on their analysis needs."

use std::fmt;

/// Parse errors from the key=value configuration format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending line.
    pub line: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad config line {:?}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Mapper configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapperConfig {
    /// Where to store recorded statistics (informational; callers decide
    /// when and how to write the bundle). Every `.drb` carries this field,
    /// so its default keeps the `.jsonl` name traces once had.
    pub output: String,
    /// Page size used when the analyzer buckets file addresses into regions.
    pub page_size: u64,
    /// Number of leading I/O operations per file to skip before tracing
    /// begins (warm-up exclusion).
    pub skip_ops: u64,
    /// Whether to record individual time-sensitive I/O operations (VFD
    /// records). Off → constant storage overhead: only per-file statistics
    /// and object records are kept.
    pub trace_io: bool,
    /// Whether to record object-level (VOL) semantics.
    pub trace_vol: bool,
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self {
            output: "dayu_trace.jsonl".to_owned(),
            page_size: 4096,
            skip_ops: 0,
            trace_io: true,
            trace_vol: true,
        }
    }
}

impl MapperConfig {
    /// Parses `key=value` lines (`#` comments and blank lines ignored).
    ///
    /// Recognized keys: `output`, `page_size`, `skip_ops`, `trace_io`
    /// (`on`/`off`/`true`/`false`), `trace_vol`.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = MapperConfig::default();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: raw.to_owned(),
                    reason: "expected key=value".into(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let bad = |reason: &str| ConfigError {
                line: raw.to_owned(),
                reason: reason.to_owned(),
            };
            match key {
                "output" => cfg.output = value.to_owned(),
                "page_size" => {
                    cfg.page_size = value
                        .parse()
                        .map_err(|_| bad("page_size must be an integer"))?;
                    if cfg.page_size == 0 {
                        return Err(bad("page_size must be positive"));
                    }
                }
                "skip_ops" => {
                    cfg.skip_ops = value
                        .parse()
                        .map_err(|_| bad("skip_ops must be an integer"))?
                }
                "trace_io" => {
                    cfg.trace_io =
                        parse_bool(value).ok_or_else(|| bad("trace_io must be on/off"))?
                }
                "trace_vol" => {
                    cfg.trace_vol =
                        parse_bool(value).ok_or_else(|| bad("trace_vol must be on/off"))?
                }
                _ => return Err(bad("unknown key")),
            }
        }
        Ok(cfg)
    }
}

fn parse_bool(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "on" | "true" | "1" | "yes" => Some(true),
        "off" | "false" | "0" | "no" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = MapperConfig::default();
        assert_eq!(c.page_size, 4096);
        assert!(c.trace_io);
        assert!(c.trace_vol);
        assert_eq!(c.skip_ops, 0);
    }

    #[test]
    fn parse_full_config() {
        let c = MapperConfig::parse(
            "# DaYu config\n\
             output = /tmp/run1.jsonl\n\
             page_size = 65536\n\
             skip_ops = 10\n\
             trace_io = off\n\
             trace_vol = on\n\
             \n",
        )
        .unwrap();
        assert_eq!(c.output, "/tmp/run1.jsonl");
        assert_eq!(c.page_size, 65536);
        assert_eq!(c.skip_ops, 10);
        assert!(!c.trace_io);
        assert!(c.trace_vol);
    }

    #[test]
    fn parse_bool_variants() {
        for v in ["on", "true", "1", "yes", "ON", "True"] {
            assert!(
                MapperConfig::parse(&format!("trace_io={v}"))
                    .unwrap()
                    .trace_io
            );
        }
        for v in ["off", "false", "0", "no"] {
            assert!(
                !MapperConfig::parse(&format!("trace_io={v}"))
                    .unwrap()
                    .trace_io
            );
        }
    }

    #[test]
    fn parse_errors() {
        assert!(MapperConfig::parse("nonsense").is_err());
        assert!(MapperConfig::parse("unknown_key=1").is_err());
        assert!(MapperConfig::parse("page_size=abc").is_err());
        assert!(MapperConfig::parse("page_size=0").is_err());
        assert!(MapperConfig::parse("trace_io=maybe").is_err());
        let e = MapperConfig::parse("page_size=zero").unwrap_err();
        assert!(e.to_string().contains("page_size"));
    }

    #[test]
    fn empty_config_is_defaults() {
        assert_eq!(MapperConfig::parse("").unwrap(), MapperConfig::default());
        assert_eq!(
            MapperConfig::parse("# only comments\n\n").unwrap(),
            MapperConfig::default()
        );
    }
}
