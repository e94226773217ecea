//! Minimal offline stand-in for the crossbeam API surface that
//! teleios-exec uses: `thread::scope` + `scope.spawn(|_| ...)`, and
//! clone-able mpmc `channel::{bounded, unbounded}` with `send`,
//! `recv`, `len`, and a blocking `iter()` that ends when every sender
//! is dropped. Built on std scoped threads + Mutex/Condvar.

pub mod thread {
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        buf: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<Inner<T>>,
        space: Condvar,
        items: Condvar,
        cap: Option<usize>,
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(Debug)]
    pub struct SendError<T>(pub T);
    #[derive(Debug)]
    pub struct RecvError;

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut g = self.0.state.lock().expect("channel poisoned");
            g.senders -= 1;
            if g.senders == 0 {
                self.0.items.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut g = self.0.state.lock().expect("channel poisoned");
            g.receivers -= 1;
            if g.receivers == 0 {
                self.0.space.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            let mut g = self.0.state.lock().expect("channel poisoned");
            loop {
                if g.receivers == 0 {
                    return Err(SendError(v));
                }
                let cap = self.0.cap.map(|c| c.max(1));
                if cap.map_or(true, |c| g.buf.len() < c) {
                    g.buf.push_back(v);
                    self.0.items.notify_one();
                    return Ok(());
                }
                g = self.0.space.wait(g).expect("channel poisoned");
            }
        }

        pub fn len(&self) -> usize {
            self.0.state.lock().expect("channel poisoned").buf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = g.buf.pop_front() {
                    self.0.space.notify_one();
                    return Ok(v);
                }
                if g.senders == 0 {
                    return Err(RecvError);
                }
                g = self.0.items.wait(g).expect("channel poisoned");
            }
        }

        pub fn len(&self) -> usize {
            self.0.state.lock().expect("channel poisoned").buf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    fn make<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(Inner {
                buf: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            cap,
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        make(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make(None)
    }
}
