//! The backend, picked by `cfg`: raw-syscall epoll on Linux
//! x86_64/aarch64, the portable scan everywhere else. Both export the
//! same shapes — `Selector::{new, register, reregister, deregister,
//! select, make_waker}` and `Waker::wake` — so [`crate::Poll`] and
//! [`crate::Waker`] call whichever is compiled with no dispatch. On
//! epoll platforms the scan is compiled for its own selector-level tests
//! only, which call every one of those methods.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod epoll;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use epoll::{EpollSelector as Selector, EventFdWaker as Waker};

#[cfg(any(
    test,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
mod scan;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) use scan::{FlagWaker as Waker, ScanSelector as Selector};

/// Probe handle the scan backend uses to test readiness without
/// consuming data: a cloned socket it can `peek`, or a listener it must
/// report speculatively.
#[derive(Debug)]
pub enum Probe {
    /// A cloned, nonblocking stream socket; `peek` tests read readiness.
    Stream(std::net::TcpStream),
    /// A listener; cannot be probed without accepting, reported ready
    /// on every scan pass (callers tolerate `WouldBlock` from accept).
    Listener,
}
