//! Readiness waiting for the serve and route loops: one safe wrapper
//! over `poll(2)`. std already links the C library, so the call is
//! declared here directly. This module holds the only `unsafe` code in
//! the crate.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Data may be read without blocking.
pub const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: c_short = 0x004;
/// An error condition (reported whatever was asked for).
const POLLERR: c_short = 0x008;
/// The peer hung up (reported whatever was asked for).
const POLLHUP: c_short = 0x010;
/// The descriptor is not open (reported whatever was asked for).
const POLLNVAL: c_short = 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One descriptor's entry in a poll set: C's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (a union of [`POLLIN`] and
    /// [`POLLOUT`]).
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether a read would not block: data, end of file, or an error
    /// the read will report.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether a write would not block, or would report an error.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Adds `fd` to the poll set `fds` when it waits for any `events`, and
/// returns its slot; a descriptor that waits for nothing stays out.
pub fn add(fds: &mut Vec<PollFd>, fd: RawFd, events: c_short) -> Option<usize> {
    (events != 0).then(|| {
        fds.push(PollFd::new(fd, events));
        fds.len() - 1
    })
}

/// Blocks until at least one entry of `fds` is ready or `timeout`
/// passes (`None` waits indefinitely), and fills in every entry's ready
/// events. A signal that interrupts the wait counts as a wake-up with
/// nothing ready.
///
/// # Errors
///
/// Any `poll(2)` failure other than `EINTR`.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd records, and `nfds` is its exact length, so
    // poll reads and writes only within it.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout) };
    if ready < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn a_pair_end_is_readable_after_a_write_and_not_before() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].readable(), "nothing was written yet");
        a.write_all(b"x").unwrap();
        wait(&mut fds, None).unwrap();
        assert!(fds[0].readable());
        assert!(!fds[0].writable(), "POLLOUT was not asked for");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        wait(&mut fds, Some(Duration::from_secs(1))).unwrap();
        assert!(fds[0].writable());
    }
}
