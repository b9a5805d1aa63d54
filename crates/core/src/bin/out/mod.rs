//! Standard output of the command-line tools, shared by `dayu-analyze`
//! and `dayu-h5ls`. It lives in a directory of its own because Cargo takes
//! every `src/bin/*.rs` file for a binary.

use std::io::{self, Write};

/// Standard output of a command. A reader that closes the pipe early
/// (`dayu-analyze trace.dtb | head -1`) ends the output quietly: later
/// writes are dropped, and the command runs on to the exit code its
/// result decides. Any other write error prints `<command>: cannot
/// write: <error>` and exits 1. `writeln!(out, ...)` writes a line.
pub struct Out {
    command: &'static str,
    closed: bool,
}

impl Out {
    pub fn new(command: &'static str) -> Self {
        Self {
            command,
            closed: false,
        }
    }

    /// Runs `write` on stdout, unless the pipe has closed.
    pub fn write_with(
        &mut self,
        write: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>,
    ) {
        if self.closed {
            return;
        }
        match write(&mut io::stdout().lock()) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
            Err(e) => {
                eprintln!("{}: cannot write: {e}", self.command);
                std::process::exit(1);
            }
        }
    }

    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.write_with(|w| w.write_fmt(args));
    }

    /// Flushes stdout and exits with `code`.
    pub fn exit(mut self, code: i32) -> ! {
        self.write_with(|w| w.flush());
        std::process::exit(code)
    }
}
