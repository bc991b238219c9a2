//! The dedicated adapter thread (paper §4: "a dedicated adapter thread to
//! change the TM configuration").
//!
//! Reconfiguration requests are sent over a channel; the adapter applies
//! them with the quiescence machinery and replies with the outcome. A
//! panic in the adapter is the requester's panic: the requester joins the
//! dead thread and resumes its unwind.

use crate::config::TmConfig;
use crate::runtime::{lock, PolyTm, SwitchError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

enum Command {
    /// Apply the configuration and send `apply`'s outcome back.
    Reconfig(TmConfig, mpsc::Sender<Result<(), SwitchError>>),
    Stop,
}

/// Handle to a running adapter thread; dropping it stops the thread.
#[derive(Debug)]
pub struct AdapterHandle {
    tx: mpsc::Sender<Command>,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// The adapter's service loop.
fn serve(poly: &PolyTm, rx: &mpsc::Receiver<Command>) {
    let mut ticks: u64 = 0;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Reconfig(config, reply) => {
                let result = poly.apply(&config);
                if obs::enabled() {
                    obs::event!(
                        "adapter.tick",
                        "tick" => ticks,
                        "config" => config.to_string(),
                        "ok" => result.is_ok(),
                    );
                    obs::counter("polytm.adapter.ticks").inc();
                }
                ticks += 1;
                // The requester may have given up; ignore.
                let _ = reply.send(result);
            }
            Command::Stop => break,
        }
    }
}

impl AdapterHandle {
    /// Spawn an adapter thread serving `poly`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread (resource exhaustion at
    /// startup — unrecoverable by the runtime); use
    /// [`AdapterHandle::try_spawn`] to handle that case.
    pub fn spawn(poly: Arc<PolyTm>) -> Self {
        Self::try_spawn(poly).expect("failed to spawn adapter thread")
    }

    /// Spawn an adapter thread, surfacing thread-creation failure instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from the failed thread spawn.
    pub fn try_spawn(poly: Arc<PolyTm>) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel::<Command>();
        let join = std::thread::Builder::new()
            .name("polytm-adapter".into())
            .spawn(move || serve(&poly, &rx))?;
        Ok(AdapterHandle {
            tx,
            join: Mutex::new(Some(join)),
        })
    }

    /// Ask the adapter to apply `config`, blocking until done.
    ///
    /// # Errors
    ///
    /// Propagates the [`SwitchError`] of [`PolyTm::apply`].
    ///
    /// # Panics
    ///
    /// Resumes the adapter thread's panic if `apply` panicked there.
    pub fn reconfigure(&self, config: TmConfig) -> Result<(), SwitchError> {
        let (reply, rx) = mpsc::channel();
        // A send can only fail if the adapter is gone, and then so is the
        // reply's sender: the `recv` below reports both.
        let _ = self.tx.send(Command::Reconfig(config, reply));
        match rx.recv() {
            Ok(result) => result,
            Err(_) => match lock(&self.join).take().map(JoinHandle::join) {
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                _ => panic!("the adapter thread is gone"),
            },
        }
    }
}

impl Drop for AdapterHandle {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Stop);
        if let Some(j) = lock(&self.join).take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendId;

    #[test]
    fn adapter_applies_configs_and_replies() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 10).max_threads(2).build());
        let adapter = AdapterHandle::spawn(Arc::clone(&poly));
        let config = TmConfig::stm(BackendId::SwissTm, 1);
        assert_eq!(adapter.reconfigure(config), Ok(()));
        assert_eq!(poly.current_config(), config);
        assert_eq!(poly.parallelism(), 1);
    }

    #[test]
    fn adapter_propagates_errors() {
        let poly = Arc::new(PolyTm::builder().heap_words(64).max_threads(1).build());
        let adapter = AdapterHandle::spawn(Arc::clone(&poly));
        assert!(adapter
            .reconfigure(TmConfig::stm(BackendId::Tl2, 5))
            .is_err());
        // The same adapter serves the next request.
        adapter
            .reconfigure(TmConfig::stm(BackendId::NOrec, 1))
            .unwrap();
        assert_eq!(poly.current_config().backend, BackendId::NOrec);
    }

    #[test]
    fn adapter_shuts_down_cleanly_on_drop() {
        let poly = Arc::new(PolyTm::builder().heap_words(64).max_threads(1).build());
        let adapter = AdapterHandle::spawn(poly);
        drop(adapter); // must not hang
    }
}
