//! Host-speed calibration.
//!
//! The machines this benchmark runs on are shared, and their speed drifts
//! by tens of percent over minutes as other work comes and goes: the same
//! seed, run twice a minute apart, has measured 1.75× apart. A fixed
//! calibration kernel, which no change to the repository can touch, is
//! timed beside every block of steps and after every set-up. Host-clock
//! metrics are then scaled to a machine on which that kernel takes
//! [`NOMINAL_NS`]: `scaled = measured × NOMINAL_NS / kernel time`.
//! A code change moves the measured time and leaves the kernel alone, so
//! scaled figures compare across runs of different commits; drift moves
//! both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ns, of the nominal machine the scaled figures refer to.
pub const NOMINAL_NS: f64 = 250_000.0;

const TABLE_WORDS: usize = 1 << 15;
const ITERATIONS: u32 = 80_000;

/// Runs the kernel once over `table` and returns its wall time in ns:
/// dependent, pseudo-random reads and writes, the access pattern of the
/// simulator's own hot loops.
fn kernel(table: &mut [u64]) -> u64 {
    let start = Instant::now();
    let mask = TABLE_WORDS - 1;
    let (mut x, mut acc) = (0x1234_5678u64, 0u64);
    for _ in 0..ITERATIONS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let j = z as usize & mask;
        table[j] = table[j].wrapping_add(z);
        acc ^= table[j.wrapping_mul(7) & mask];
        if acc & 1 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// Owns one 256 KiB kernel table per thread the workload keeps busy,
/// allocated once.
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    /// A calibrator for a workload that keeps `threads` cores busy: the
    /// kernel runs on that many threads at once, so it sees contention on
    /// every core the workload uses.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            tables: vec![vec![0; TABLE_WORDS]; threads.max(1)],
        }
    }

    /// Runs the kernel once on every thread; returns the mean wall time
    /// in ns.
    pub fn sample(&mut self) -> u64 {
        let (first, rest) = self.tables.split_first_mut().expect("at least one table");
        let total: u64 = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|table| scope.spawn(move || kernel(table)))
                .collect();
            let own = kernel(first);
            own + helpers
                .into_iter()
                .map(|h| h.join().expect("calibration kernel does not panic"))
                .sum::<u64>()
        });
        total / self.tables.len() as u64
    }

    /// Median of `n` kernel samples.
    pub fn median(&mut self, n: usize) -> u64 {
        let mut samples: Vec<u64> = (0..n).map(|_| self.sample()).collect();
        samples.sort_unstable();
        samples[n / 2]
    }
}

/// The factor that scales a time measured while the kernel took
/// `kernel_ns` to the nominal machine.
pub fn scale(kernel_ns: u64) -> f64 {
    NOMINAL_NS / kernel_ns as f64
}
