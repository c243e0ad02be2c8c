//! Primitive indirection for `supervise.rs`, which `spg-race` also
//! compiles (via `#[path]`) against its logical clock: an included
//! file's `crate::` resolves to the *including* crate, so this twin and
//! `spg-race`'s decide which `sleep` the one source gets. Keep it a pure
//! re-export list — logic added here would run in production only and
//! silently weaken the proofs (see `spg-serve`'s twin for `queue.rs`).

pub(crate) use std::thread::sleep;
