//! Level-triggered epoll selector driven by raw syscalls.
//!
//! The workspace vendors no `libc`, so the four syscalls epoll needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`/`epoll_pwait`,
//! `eventfd2`, plus `read`/`write`/`close` for the eventfd waker) are
//! issued directly with `core::arch::asm!`. Kernel ABI facts this file
//! hard-codes: syscall return values in `[-4095, -1]` are `-errno`;
//! `struct epoll_event` is packed (12 bytes) on x86_64 and naturally
//! aligned (16 bytes) everywhere else.

use crate::{Event, Interest, Source, Token};
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Mutex;
use std::time::Duration;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_WAIT: usize = 232;
    pub const EPOLL_CTL: usize = 233;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    // aarch64 has no epoll_wait; epoll_pwait with a null sigmask is it.
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CTL: usize = 21;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: usize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret as isize
}

#[cfg(target_arch = "aarch64")]
#[inline]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: usize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a1 => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        options(nostack),
    );
    ret as isize
}

/// Maps a raw syscall return to `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

fn sys_close(fd: RawFd) {
    // Nothing sensible to do with a failed close on drop.
    let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
}

#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

fn interest_mask(interest: Interest) -> u32 {
    let mut mask = EPOLLRDHUP;
    if interest.is_readable() {
        mask |= EPOLLIN;
    }
    if interest.is_writable() {
        mask |= EPOLLOUT;
    }
    mask
}

#[derive(Debug)]
pub(crate) struct EpollSelector {
    epfd: RawFd,
    /// token → waker eventfd, so select() can drain a fired waker and
    /// keep level-triggered polling from re-reporting it forever.
    wakers: Mutex<HashMap<usize, RawFd>>,
}

impl EpollSelector {
    pub(crate) fn new() -> io::Result<EpollSelector> {
        let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(EpollSelector {
            epfd: epfd as RawFd,
            wakers: Mutex::new(HashMap::new()),
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, mask: u32, token: usize) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask,
            data: token as u64,
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.epfd as usize,
                op,
                fd as usize,
                &mut ev as *mut EpollEvent as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    pub(crate) fn register(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mask = interest_mask(interest);
        self.ctl(EPOLL_CTL_ADD, source.raw_fd(), mask, token.0)
    }

    pub(crate) fn reregister(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mask = interest_mask(interest);
        self.ctl(EPOLL_CTL_MOD, source.raw_fd(), mask, token.0)
    }

    pub(crate) fn deregister(&self, source: &impl Source, _token: Token) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, source.raw_fd(), 0, 0)
    }

    pub(crate) fn select(
        &self,
        events: &mut Vec<Event>,
        cap: usize,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        let cap = cap.min(1024);
        let mut buf = vec![EpollEvent { events: 0, data: 0 }; cap];
        let timeout_ms: isize = match timeout {
            // Round sub-millisecond timeouts up so a 100 µs request
            // doesn't degenerate into a zero-timeout spin.
            Some(d) => (d.as_millis() as isize)
                .max(isize::from(!d.is_zero()))
                .min(i32::MAX as isize),
            None => -1,
        };
        let n = loop {
            #[cfg(target_arch = "x86_64")]
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_WAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    cap,
                    timeout_ms as usize,
                    0,
                    0,
                )
            };
            #[cfg(target_arch = "aarch64")]
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    buf.as_mut_ptr() as usize,
                    cap,
                    timeout_ms as usize,
                    0, // null sigmask
                    8, // sigsetsize
                )
            };
            match check(ret) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let wakers = self.wakers.lock().unwrap();
        for raw in buf.iter().take(n) {
            let mask = { raw.events };
            let token = { raw.data } as usize;
            if let Some(&efd) = wakers.get(&token) {
                drain_eventfd(efd);
            }
            events.push(Event::new(
                Token(token),
                mask & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                mask & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                mask & (EPOLLRDHUP | EPOLLHUP) != 0,
                mask & EPOLLERR != 0,
            ));
        }
        Ok(())
    }

    pub(crate) fn make_waker(&self, token: Token) -> io::Result<EventFdWaker> {
        let efd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?
                as RawFd;
        if let Err(e) = self.ctl(EPOLL_CTL_ADD, efd, EPOLLIN, token.0) {
            sys_close(efd);
            return Err(e);
        }
        self.wakers.lock().unwrap().insert(token.0, efd);
        Ok(EventFdWaker { efd })
    }
}

impl Drop for EpollSelector {
    fn drop(&mut self) {
        sys_close(self.epfd);
    }
}

fn drain_eventfd(efd: RawFd) {
    let mut count = [0u8; 8];
    // Nonblocking eventfd: EAGAIN just means another drain got there first.
    let _ = unsafe {
        syscall6(
            nr::READ,
            efd as usize,
            count.as_mut_ptr() as usize,
            8,
            0,
            0,
            0,
        )
    };
}

/// An `eventfd(2)`-backed waker: `wake` writes an 8-byte counter
/// increment, making the registered epoll entry read-ready.
#[derive(Debug)]
pub(crate) struct EventFdWaker {
    efd: RawFd,
}

// The eventfd is only written from wake() and read from select(); both
// are single syscalls on a fd that lives as long as the waker.
unsafe impl Send for EventFdWaker {}
unsafe impl Sync for EventFdWaker {}

impl EventFdWaker {
    pub(crate) fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        match check(unsafe {
            syscall6(
                nr::WRITE,
                self.efd as usize,
                buf.as_ptr() as usize,
                8,
                0,
                0,
                0,
            )
        }) {
            Ok(_) => Ok(()),
            // Counter saturated: the poll side is already pending wakeup.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

impl Drop for EventFdWaker {
    fn drop(&mut self) {
        sys_close(self.efd);
    }
}
