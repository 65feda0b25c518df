//! A fixed reference kernel that measures how fast the host is running
//! right now.
//!
//! On a shared host the same code runs at different speeds from one minute
//! to the next, because other tenants contend for the cores and caches.
//! The benchmark times this kernel between its repetitions and reports
//! throughput normalized to the kernel's speed, which removes most of that
//! drift. The kernel belongs to the benchmark, not to the program, so a
//! change to the program cannot move it.
//!
//! The kernel runs in a child process, so its 32 MiB buffer never counts
//! towards the measured process's peak resident set.

use std::process::Command;
use std::time::Instant;

/// Matrix side of the multiply: three 72 KiB matrices.
const N: usize = 96;
/// Elements of the streamed buffer: 32 MiB, more than the last-level cache.
const STREAM: usize = 1 << 22;
/// Multiplies per unit.
const MULTIPLIES: usize = 4;
/// Units timed per call of [`Reference::sample`].
const UNITS: usize = 5;

/// The kernel's time for one unit on an idle host of the kind the bounds
/// were set on (a 2-vCPU Intel Xeon VM). Dividing by it keeps normalized
/// throughput in the units, and near the values, of raw throughput.
const NOMINAL_UNIT_S: f64 = 0.006;

/// The flag that makes the binary run [`child_main`] instead of a workload.
pub const CHILD_FLAG: &str = "--reference-kernel";

/// The kernel's inputs.
struct Kernel {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    stream: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        Self {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect(),
            b: (0..N * N).map(|i| (i % 5) as f64 * 0.1).collect(),
            c: vec![0.0; N * N],
            stream: (0..STREAM).map(|i| (i % 3) as f64).collect(),
        }
    }

    fn unit(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..MULTIPLIES {
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for j in 0..N {
                        self.c[i * N + j] += aik * self.b[k * N + j];
                    }
                }
            }
        }
        let sum: f64 = self.stream.iter().sum();
        std::hint::black_box((sum, &self.c));
        started.elapsed().as_secs_f64()
    }
}

/// Entry point of the child process: times a few units and prints the
/// fastest, in seconds.
pub fn child_main() {
    let mut kernel = Kernel::new();
    let fastest = (0..UNITS)
        .map(|_| kernel.unit())
        .fold(f64::INFINITY, f64::min);
    println!("{fastest:?}");
}

/// The fastest reference unit timed so far in this run.
pub struct Reference {
    fastest: f64,
}

impl Reference {
    /// No units timed yet.
    pub fn new() -> Self {
        Self {
            fastest: f64::INFINITY,
        }
    }

    /// Times a few units in a child process and waits for it to end.
    pub fn sample(&mut self) {
        let exe = std::env::current_exe().expect("path of the running benchmark binary");
        let out = Command::new(exe)
            .arg(CHILD_FLAG)
            .output()
            .expect("spawn the reference-kernel child");
        let t: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("reference-kernel child prints one number");
        self.fastest = self.fastest.min(t);
    }

    /// How many times slower than nominal the host ran: the fastest unit
    /// timed over the nominal unit time. Multiplying a throughput measured
    /// in the same run by this undoes the host's drift.
    pub fn slowdown(&self) -> f64 {
        self.fastest / NOMINAL_UNIT_S
    }
}
