//! Machine-speed reference.
//!
//! The host's effective speed drifts by 20% and more over tens of
//! seconds (other tenants share the cores; the guest sees no steal
//! time), which swamps any change a program could make. A fixed
//! std-only kernel — a hold loop over a binary heap plus scattered
//! updates to a 256 KiB table, the same kinds of work the simulator
//! does — runs before every timed cell. Host times are reported at
//! reference speed: scaled by [`REF_NOMINAL_S`] over the kernel's
//! measured time. The kernel is benchmark code, identical on every
//! commit measured, so the scaling cancels the machine's drift and
//! never a change to the program.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds at reference speed (its median on a quiet 2-core
/// 2.1 GHz x86-64 VM).
pub const REF_NOMINAL_S: f64 = 0.025;

/// Run the reference kernel once over `table` (allocated once by the
/// caller, so no page faults are timed); returns its host seconds.
fn kernel(table: &mut [u32]) -> f64 {
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(256);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..256u64 {
        heap.push(Reverse((i, i)));
    }
    for _ in 0..700_000 {
        let Reverse((t, j)) = heap.pop().expect("heap stays full");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & (TABLE - 1);
        table[k] = table[k].wrapping_add(j as u32);
        let d = 1 + (u64::from(table[k]) & 1023) + (x >> 54);
        heap.push(Reverse((t + d, j)));
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

const TABLE: usize = 1 << 16;

/// Reference-kernel samples over some stretch of a run.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
    table: Vec<u32>,
}

impl Speed {
    /// Run the kernel once and return its slowdown.
    pub fn sample(&mut self) -> f64 {
        if self.table.is_empty() {
            self.table = vec![0; TABLE];
        }
        let t = kernel(&mut self.table);
        self.samples.push(t);
        t / REF_NOMINAL_S
    }

    /// Measured kernel time over nominal: 1.0 at reference speed, 1.2
    /// on a machine running 20% slow.
    pub fn slowdown(&self) -> f64 {
        let mut v = self.samples.clone();
        crate::median(&mut v) / REF_NOMINAL_S
    }
}
