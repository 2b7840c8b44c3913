//! Graceful-drain signal plumbing, dependency-free.
//!
//! `SIGTERM`/`SIGINT` flip one `AtomicBool`; nothing else happens in
//! the handler (an async-signal-safe store is all POSIX allows). The
//! accept loop blocks in `accept`, which a store cannot interrupt, so a
//! server that honors signals runs [`wait_for_shutdown`] on a watcher
//! thread and lets that thread do the waking. The binding goes straight
//! to libc's `signal` symbol — std already links libc on unix, and the
//! workspace policy rules out the `libc` crate. Non-unix builds get a
//! no-op install and rely on `POST /shutdown`.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a drain has been requested (by signal or programmatically).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests a drain programmatically (the `POST /shutdown` route, and
/// tests).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Sleeps until a signal has requested a drain (`true`) or `cancelled`
/// says nobody is waiting for one any more (`false`). Looking at the
/// flag a few dozen times a second is the whole cost of signal handling;
/// it is paid here, off the request path.
pub fn wait_for_shutdown(cancelled: impl Fn() -> bool) -> bool {
    loop {
        if shutdown_requested() {
            return true;
        }
        if cancelled() {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Re-arms the flag (tests that start several servers in one process).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use std::ffi::c_int;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn on_signal(_signum: c_int) {
        super::request_shutdown();
    }

    /// Binds SIGTERM and SIGINT to the drain flag.
    pub fn install() {
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal binding off unix; `POST /shutdown` still drains.
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handlers (idempotent).
pub fn install_handlers() {
    imp::install();
}

/// The flag is one per process and the test harness runs tests on
/// several threads: whoever flips it, here or in `server.rs`, holds this.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static FLAG_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    FLAG_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_flips_and_resets() {
        let _flag = flag_lock();
        reset();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset();
        assert!(!shutdown_requested());
    }

    #[test]
    fn the_watcher_tells_a_signal_from_a_cancellation() {
        let _flag = flag_lock();
        reset();
        assert!(!wait_for_shutdown(|| true), "cancelled before any signal");
        request_shutdown();
        assert!(wait_for_shutdown(|| false));
        assert!(wait_for_shutdown(|| true), "a signal that has arrived wins");
        reset();
    }

    #[cfg(unix)]
    #[test]
    fn installing_handlers_does_not_disturb_the_process() {
        // The handler itself is exercised end-to-end by the CI smoke
        // (real SIGTERM against a running server); here we only prove
        // installation is safe to call repeatedly.
        install_handlers();
        install_handlers();
    }
}
