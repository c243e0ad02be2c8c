//! Seeded lint fixture: a hand-rolled fan-out outside `spg-sync`.
//! Never compiled — exists so `spg-lint --self-test` can prove the
//! thread-spawn pass still catches this bug class, and still honors a
//! reasoned escape.

pub fn fan_out(chunks: &mut [Vec<f32>]) {
    // The seeded bug: one more ad-hoc scope with its own join/panic
    // handling, where `spg_sync::fork_join` is the one place for it.
    std::thread::scope(|scope| {
        for chunk in chunks.iter_mut() {
            scope.spawn(move || chunk.fill(0.0));
        }
    });
}

pub fn service() -> std::thread::JoinHandle<()> {
    // lint: allow(thread-spawn) fixture: a long-lived service thread states why it exists
    std::thread::spawn(|| ())
}
