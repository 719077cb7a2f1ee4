//! Instrumented drop-in replacements for `std::sync` primitives.
//!
//! Inside a model run every operation is a scheduling point handled by
//! the controller (the private `sched` module); atomics go through the
//! per-location store-buffer memory model, locks and channels through
//! the scheduler's blocking protocol. **Outside** a model run (or when
//! the object was created outside the current execution) every
//! primitive falls back to its plain `std` twin, so code compiled
//! against this module still behaves normally in ordinary tests.
//!
//! The one exception is [`mpsc`], which is model-only: channels must be
//! created inside a model closure.
//!
//! Create primitives *inside* the model closure: an object created
//! outside the current execution is invisible to the scheduler and will
//! be driven through the fallback path even when used by model threads.

use std::sync::Arc as StdArc;

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::sched::{cur_ctx, Controller, Ctx};

/// Plain re-export: `Arc` needs no instrumentation (refcount ops are
/// not part of any protocol we check).
pub use std::sync::Arc;

/// Instrumented atomic integers and `Ordering`.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::sched::cur_ctx;

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $Name:ident, $Std:ident, $Int:ty) => {
            $(#[$doc])*
            pub struct $Name {
                fallback: std::sync::atomic::$Std,
                model: Option<(u64, usize)>,
            }

            impl $Name {
                /// Create the atomic (registers a model location when a
                /// model execution is active on this thread).
                pub fn new(v: $Int) -> Self {
                    Self::named(stringify!($Name), v)
                }

                /// Like [`Self::new`] but with a location name shown in
                /// interleaving traces.
                pub fn named(name: &str, v: $Int) -> Self {
                    let model = cur_ctx()
                        .map(|c| (c.exec, c.ctrl.register_loc(c.me, name.to_string(), v as u64)));
                    Self {
                        fallback: std::sync::atomic::$Std::new(v),
                        model,
                    }
                }

                fn ctx(&self) -> Option<(crate::sched::Ctx, usize)> {
                    let (exec, loc) = self.model?;
                    let ctx = cur_ctx()?;
                    if ctx.exec == exec {
                        Some((ctx, loc))
                    } else {
                        None
                    }
                }

                /// Atomic load under `ord`.
                pub fn load(&self, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_load(c.me, loc, ord) as $Int,
                        None => self.fallback.load(ord),
                    }
                }

                /// Atomic store under `ord`.
                pub fn store(&self, v: $Int, ord: Ordering) {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_store(c.me, loc, v as u64, ord),
                        None => self.fallback.store(v, ord),
                    }
                }

                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, v: $Int, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_rmw(c.me, loc, ord, |x| {
                            (x as $Int).wrapping_add(v) as u64
                        }) as $Int,
                        None => self.fallback.fetch_add(v, ord),
                    }
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $Int, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_rmw(c.me, loc, ord, |x| {
                            (x as $Int).wrapping_sub(v) as u64
                        }) as $Int,
                        None => self.fallback.fetch_sub(v, ord),
                    }
                }

                /// Atomic bitwise or; returns the previous value.
                pub fn fetch_or(&self, v: $Int, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_rmw(c.me, loc, ord, |x| {
                            ((x as $Int) | v) as u64
                        }) as $Int,
                        None => self.fallback.fetch_or(v, ord),
                    }
                }

                /// Atomic max; returns the previous value.
                pub fn fetch_max(&self, v: $Int, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_rmw(c.me, loc, ord, |x| {
                            (x as $Int).max(v) as u64
                        }) as $Int,
                        None => self.fallback.fetch_max(v, ord),
                    }
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, v: $Int, ord: Ordering) -> $Int {
                    match self.ctx() {
                        Some((c, loc)) => c.ctrl.atomic_rmw(c.me, loc, ord, |_| v as u64) as $Int,
                        None => self.fallback.swap(v, ord),
                    }
                }

                /// Compare-exchange (the weak variant is modeled as
                /// strong: no spurious failures).
                pub fn compare_exchange(
                    &self,
                    current: $Int,
                    new: $Int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$Int, $Int> {
                    match self.ctx() {
                        Some((c, loc)) => c
                            .ctrl
                            .atomic_cas(c.me, loc, current as u64, new as u64, success, failure)
                            .map(|v| v as $Int)
                            .map_err(|v| v as $Int),
                        None => self.fallback.compare_exchange(current, new, success, failure),
                    }
                }

                /// See [`Self::compare_exchange`].
                pub fn compare_exchange_weak(
                    &self,
                    current: $Int,
                    new: $Int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$Int, $Int> {
                    self.compare_exchange(current, new, success, failure)
                }
            }

            impl Default for $Name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl std::fmt::Debug for $Name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($Name))
                        .field(&self.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    int_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );
    int_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize
    );
    int_atomic!(
        /// Instrumented `AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32
    );

    /// Instrumented `AtomicBool` (modeled as a 0/1 location).
    pub struct AtomicBool {
        inner: AtomicU64,
    }

    impl AtomicBool {
        /// Create the atomic.
        pub fn new(v: bool) -> Self {
            Self::named("AtomicBool", v)
        }

        /// Create with a trace name.
        pub fn named(name: &str, v: bool) -> Self {
            AtomicBool {
                inner: AtomicU64::named(name, v as u64),
            }
        }

        /// Atomic load.
        pub fn load(&self, ord: Ordering) -> bool {
            self.inner.load(ord) != 0
        }

        /// Atomic store.
        pub fn store(&self, v: bool, ord: Ordering) {
            self.inner.store(v as u64, ord)
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            self.inner.swap(v as u64, ord) != 0
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.load(Ordering::Relaxed))
                .finish()
        }
    }
}

fn obj_ctx(model: &Option<(u64, usize)>) -> Option<(Ctx, usize)> {
    let (exec, id) = (*model)?;
    let ctx = cur_ctx()?;
    if ctx.exec == exec {
        Some((ctx, id))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented `std::sync::Mutex`.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    model: Option<(u64, usize)>,
}

/// Guard returned by [`Mutex::lock`]; releasing it is a visible
/// operation in the model.
pub struct MutexGuard<'a, T> {
    // `Drop` releases the std guard first, then performs the model
    // release: no other model thread can acquire until the model-level
    // release is applied, so the real lock is always free by then.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(StdArc<Controller>, usize, usize)>,
}

impl<T> Mutex<T> {
    /// Create the mutex (registers a model lock when an execution is
    /// active on this thread).
    pub fn new(t: T) -> Self {
        Self::named("mutex", t)
    }

    /// Create with a trace name.
    pub fn named(name: &str, t: T) -> Self {
        let model = cur_ctx().map(|c| (c.exec, c.ctrl.register_lock(name.to_string())));
        Mutex {
            inner: std::sync::Mutex::new(t),
            model,
        }
    }

    /// Acquire the mutex, blocking in the model's scheduler.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                c.ctrl.lock_w(c.me, id, true);
                let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    inner: Some(g),
                    model: Some((c.ctrl, c.me, id)),
                })
            }
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(pe) => Err(PoisonError::new(MutexGuard {
                    inner: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                if c.ctrl.try_lock_w(c.me, id) {
                    let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                    Ok(MutexGuard {
                        inner: Some(g),
                        model: Some((c.ctrl, c.me, id)),
                    })
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(pe)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        inner: Some(pe.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<'a, T> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        // Drop the std guard first (data release), then perform the
        // model release — no other model thread can run in between, so
        // the real lock is free by the time the scheduler lets a
        // blocked thread retry.
        self.inner = None;
        if let Some((ctrl, me, id)) = self.model.take() {
            ctrl.unlock(me, id, true, std::thread::panicking());
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Instrumented `std::sync::RwLock`.
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
    model: Option<(u64, usize)>,
}

/// Shared guard from [`RwLock::read`] / [`RwLock::try_read`].
pub struct RwLockReadGuard<'a, T> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: Option<(StdArc<Controller>, usize, usize)>,
}

/// Exclusive guard from [`RwLock::write`] / [`RwLock::try_write`].
pub struct RwLockWriteGuard<'a, T> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: Option<(StdArc<Controller>, usize, usize)>,
}

impl<T> RwLock<T> {
    /// Create the lock (registers a model lock when an execution is
    /// active on this thread).
    pub fn new(t: T) -> Self {
        Self::named("rwlock", t)
    }

    /// Create with a trace name.
    pub fn named(name: &str, t: T) -> Self {
        let model = cur_ctx().map(|c| (c.exec, c.ctrl.register_lock(name.to_string())));
        RwLock {
            inner: std::sync::RwLock::new(t),
            model,
        }
    }

    fn std_read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(pe)) => pe.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("model read-lock held but std RwLock write-locked")
            }
        }
    }

    fn std_write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(pe)) => pe.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("model write-lock held but std RwLock still locked")
            }
        }
    }

    /// Acquire shared, blocking in the model's scheduler.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                c.ctrl.lock_r(c.me, id);
                Ok(RwLockReadGuard {
                    inner: Some(self.std_read()),
                    model: Some((c.ctrl, c.me, id)),
                })
            }
            None => match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(pe) => Err(PoisonError::new(RwLockReadGuard {
                    inner: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Acquire exclusive, blocking in the model's scheduler.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                c.ctrl.lock_w(c.me, id, false);
                Ok(RwLockWriteGuard {
                    inner: Some(self.std_write()),
                    model: Some((c.ctrl, c.me, id)),
                })
            }
            None => match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(pe) => Err(PoisonError::new(RwLockWriteGuard {
                    inner: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Try to acquire shared without blocking.
    pub fn try_read(&self) -> TryLockResult<RwLockReadGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                if c.ctrl.try_lock_r(c.me, id) {
                    Ok(RwLockReadGuard {
                        inner: Some(self.std_read()),
                        model: Some((c.ctrl, c.me, id)),
                    })
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
            None => match self.inner.try_read() {
                Ok(g) => Ok(RwLockReadGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(pe)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockReadGuard {
                        inner: Some(pe.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }

    /// Try to acquire exclusive without blocking.
    pub fn try_write(&self) -> TryLockResult<RwLockWriteGuard<'_, T>> {
        match obj_ctx(&self.model) {
            Some((c, id)) => {
                if c.ctrl.try_lock_w(c.me, id) {
                    Ok(RwLockWriteGuard {
                        inner: Some(self.std_write()),
                        model: Some((c.ctrl, c.me, id)),
                    })
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
            None => match self.inner.try_write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    inner: Some(g),
                    model: None,
                }),
                Err(TryLockError::Poisoned(pe)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockWriteGuard {
                        inner: Some(pe.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<'a, T> std::ops::Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<'a, T> Drop for RwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((ctrl, me, id)) = self.model.take() {
            ctrl.unlock(me, id, false, std::thread::panicking());
        }
    }
}

impl<'a, T> std::ops::Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<'a, T> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<'a, T> Drop for RwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((ctrl, me, id)) = self.model.take() {
            ctrl.unlock(me, id, true, std::thread::panicking());
        }
    }
}

// ---------------------------------------------------------------------------
// mpsc (model-only)
// ---------------------------------------------------------------------------

/// Instrumented `std::sync::mpsc` — **model-only**: channels must be
/// created inside a model closure (there is no fallback path).
///
/// Semantics notes: `recv_timeout` never waits — in a model, "the
/// timeout fired" is just one more schedulable outcome, so it reports
/// `Timeout` immediately whenever the queue is empty and senders are
/// still alive. `sync_channel(0)` (rendezvous) is approximated by
/// capacity 1.
pub mod mpsc {
    use std::collections::VecDeque;
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    use crate::report::Event;
    use crate::sched::{cur_ctx, view_join, BlockedOn, Controller, Ctx};

    struct Core<T> {
        vals: std::sync::Mutex<VecDeque<T>>,
        ctrl: StdArc<Controller>,
        exec: u64,
        chan: usize,
    }

    impl<T> Core<T> {
        fn ctx(&self) -> Ctx {
            let ctx = cur_ctx().expect("tecore_check::sync::mpsc used outside a model run");
            assert_eq!(
                ctx.exec, self.exec,
                "tecore_check::sync::mpsc channel used outside the execution that created it"
            );
            ctx
        }

        fn push(&self, t: T) {
            self.vals
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(t);
        }

        fn pop(&self) -> Option<T> {
            self.vals
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        core: StdArc<Core<T>>,
    }

    /// Sending half of a bounded channel.
    pub struct SyncSender<T> {
        core: StdArc<Core<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        core: StdArc<Core<T>>,
    }

    fn new_core<T>(name: &str, cap: Option<usize>) -> StdArc<Core<T>> {
        let ctx = cur_ctx().expect("tecore_check::sync::mpsc channels are model-only");
        let chan = ctx.ctrl.register_chan(name.to_string(), cap);
        StdArc::new(Core {
            vals: std::sync::Mutex::new(VecDeque::new()),
            ctrl: ctx.ctrl,
            exec: ctx.exec,
            chan,
        })
    }

    /// Unbounded channel (model-only).
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let core = new_core("chan", None);
        (
            Sender {
                core: StdArc::clone(&core),
            },
            Receiver { core },
        )
    }

    /// Bounded channel (model-only; capacity 0 behaves as 1).
    pub fn sync_channel<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
        let core = new_core("sync_chan", Some(cap.max(1)));
        (
            SyncSender {
                core: StdArc::clone(&core),
            },
            Receiver { core },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue `t`; fails when the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let ctx = self.core.ctx();
            let chan = self.core.chan;
            let mut slot = Some(t);
            self.core.ctrl.visible(ctx.me, |g| {
                if !g.chans[chan].recv_alive {
                    g.push_ev(ctx.me, Event::Send { chan, ok: false });
                    return Err(SendError(slot.take().expect("send slot")));
                }
                let view = g.threads[ctx.me].view.clone();
                g.chans[chan].views.push_back(view);
                self.core.push(slot.take().expect("send slot"));
                g.wake(|b| matches!(b, BlockedOn::ChanRecv(x) if *x == chan));
                g.push_ev(ctx.me, Event::Send { chan, ok: true });
                Ok(())
            })
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let chan = self.core.chan;
            self.core.ctrl.quiet(|g| g.chans[chan].senders += 1);
            Sender {
                core: StdArc::clone(&self.core),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let chan = self.core.chan;
            self.core.ctrl.quiet(|g| {
                g.chans[chan].senders = g.chans[chan].senders.saturating_sub(1);
                if g.chans[chan].senders == 0 {
                    g.wake(|b| matches!(b, BlockedOn::ChanRecv(x) if *x == chan));
                }
            });
        }
    }

    impl<T> SyncSender<T> {
        /// Enqueue `t`, blocking (in the scheduler) while the channel
        /// is full.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let ctx = self.core.ctx();
            let chan = self.core.chan;
            let mut slot = Some(t);
            self.core
                .ctrl
                .block_on(ctx.me, BlockedOn::ChanSend(chan), |g| {
                    if !g.chans[chan].recv_alive {
                        g.push_ev(ctx.me, Event::Send { chan, ok: false });
                        return Some(Err(SendError(slot.take().expect("send slot"))));
                    }
                    let cap = g.chans[chan].cap.unwrap_or(usize::MAX);
                    if g.chans[chan].views.len() < cap {
                        let view = g.threads[ctx.me].view.clone();
                        g.chans[chan].views.push_back(view);
                        self.core.push(slot.take().expect("send slot"));
                        g.wake(|b| matches!(b, BlockedOn::ChanRecv(x) if *x == chan));
                        g.push_ev(ctx.me, Event::Send { chan, ok: true });
                        Some(Ok(()))
                    } else {
                        None
                    }
                })
        }

        /// Non-blocking send.
        pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
            let ctx = self.core.ctx();
            let chan = self.core.chan;
            let mut slot = Some(t);
            self.core.ctrl.visible(ctx.me, |g| {
                if !g.chans[chan].recv_alive {
                    g.push_ev(ctx.me, Event::Send { chan, ok: false });
                    return Err(TrySendError::Disconnected(slot.take().expect("send slot")));
                }
                let cap = g.chans[chan].cap.unwrap_or(usize::MAX);
                if g.chans[chan].views.len() < cap {
                    let view = g.threads[ctx.me].view.clone();
                    g.chans[chan].views.push_back(view);
                    self.core.push(slot.take().expect("send slot"));
                    g.wake(|b| matches!(b, BlockedOn::ChanRecv(x) if *x == chan));
                    g.push_ev(ctx.me, Event::Send { chan, ok: true });
                    Ok(())
                } else {
                    Err(TrySendError::Full(slot.take().expect("send slot")))
                }
            })
        }
    }

    impl<T> Clone for SyncSender<T> {
        fn clone(&self) -> Self {
            let chan = self.core.chan;
            self.core.ctrl.quiet(|g| g.chans[chan].senders += 1);
            SyncSender {
                core: StdArc::clone(&self.core),
            }
        }
    }

    impl<T> Drop for SyncSender<T> {
        fn drop(&mut self) {
            let chan = self.core.chan;
            self.core.ctrl.quiet(|g| {
                g.chans[chan].senders = g.chans[chan].senders.saturating_sub(1);
                if g.chans[chan].senders == 0 {
                    g.wake(|b| matches!(b, BlockedOn::ChanRecv(x) if *x == chan));
                }
            });
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue, blocking (in the scheduler) while empty; fails once
        /// all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let ctx = self.core.ctx();
            let chan = self.core.chan;
            self.core
                .ctrl
                .block_on(ctx.me, BlockedOn::ChanRecv(chan), |g| {
                    if let Some(view) = g.chans[chan].views.pop_front() {
                        view_join(&mut g.threads[ctx.me].view, &view);
                        g.wake(|b| matches!(b, BlockedOn::ChanSend(x) if *x == chan));
                        g.push_ev(ctx.me, Event::Recv { chan, ok: true });
                        Some(Ok(self.core.pop().expect("value behind view")))
                    } else if g.chans[chan].senders == 0 {
                        g.push_ev(ctx.me, Event::Recv { chan, ok: false });
                        Some(Err(RecvError))
                    } else {
                        None
                    }
                })
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let ctx = self.core.ctx();
            let chan = self.core.chan;
            self.core.ctrl.visible(ctx.me, |g| {
                if let Some(view) = g.chans[chan].views.pop_front() {
                    view_join(&mut g.threads[ctx.me].view, &view);
                    g.wake(|b| matches!(b, BlockedOn::ChanSend(x) if *x == chan));
                    g.push_ev(ctx.me, Event::Recv { chan, ok: true });
                    Ok(self.core.pop().expect("value behind view"))
                } else if g.chans[chan].senders == 0 {
                    g.push_ev(ctx.me, Event::Recv { chan, ok: false });
                    Err(TryRecvError::Disconnected)
                } else {
                    g.push_ev(ctx.me, Event::Recv { chan, ok: false });
                    Err(TryRecvError::Empty)
                }
            })
        }

        /// Model semantics: the timeout "fires" immediately whenever
        /// the queue is empty — an always-possible outcome the
        /// scheduler should explore, not a wall-clock wait.
        pub fn recv_timeout(&self, _timeout: Duration) -> Result<T, RecvTimeoutError> {
            match self.try_recv() {
                Ok(v) => Ok(v),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => Err(RecvTimeoutError::Timeout),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let chan = self.core.chan;
            self.core.ctrl.quiet(|g| {
                g.chans[chan].recv_alive = false;
                g.wake(|b| matches!(b, BlockedOn::ChanSend(x) if *x == chan));
            });
        }
    }
}
