//! Unified process exit codes for the serving binaries.
//!
//! Matches the convention the `experiments` binary established (0/2/3/4),
//! so CI can assert outcomes by code instead of scraping output:
//!
//! | code | `fg-serve`                      | `fg-loadgen`                      |
//! |-----:|---------------------------------|-----------------------------------|
//! | 0    | clean start and graceful drain  | run completed, SLO asserts passed |
//! | 2    | usage error (flags, arguments)  | usage error                       |
//! | 3    | bind / IO failure at startup    | target unreachable                |
//! | 4    | initial config rejected         | SLO assertion failed / no decisions |

use std::io::{self, Write};
use std::process::ExitCode;

/// Exit disposition for `fg-serve` and `fg-loadgen`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Clean completion.
    Success = 0,
    /// Bad command line.
    Usage = 2,
    /// The environment failed us: bind error, connect failure.
    Unavailable = 3,
    /// The run completed but its contract failed: rejected config,
    /// violated SLO assertion, zero successful decisions.
    ContractFailed = 4,
}

impl From<Exit> for ExitCode {
    fn from(e: Exit) -> ExitCode {
        ExitCode::from(e as u8)
    }
}

/// Prints `text` and a newline to stdout and flushes. A reader that stops
/// early (`fg-serve --print-config | head`) closes the pipe; that is a
/// normal end of output, so `BrokenPipe` is [`Exit::Success`]. Any other
/// write failure is [`Exit::Unavailable`].
pub fn print_stdout(text: &str) -> Exit {
    print_to(&mut io::stdout().lock(), text)
}

/// [`print_stdout`] over any writer.
fn print_to<W: Write>(w: &mut W, text: &str) -> Exit {
    match writeln!(w, "{text}").and_then(|()| w.flush()) {
        Ok(()) => Exit::Success,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Exit::Success,
        Err(_) => Exit::Unavailable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that fails every write with one error kind.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_is_a_normal_end_of_output() {
        let mut out = Vec::new();
        assert_eq!(print_to(&mut out, "config"), Exit::Success);
        assert_eq!(out, b"config\n");
        let broken = print_to(&mut Failing(io::ErrorKind::BrokenPipe), "config");
        assert_eq!(broken, Exit::Success);
        let denied = print_to(&mut Failing(io::ErrorKind::PermissionDenied), "config");
        assert_eq!(denied, Exit::Unavailable);
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Exit::Success as u8, 0);
        assert_eq!(Exit::Usage as u8, 2);
        assert_eq!(Exit::Unavailable as u8, 3);
        assert_eq!(Exit::ContractFailed as u8, 4);
    }
}
