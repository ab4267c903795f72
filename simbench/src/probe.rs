//! Host-speed probe. On a shared host the same simulation can run at
//! half speed for minutes while a neighbour is busy. The probe is a
//! fixed register-machine interpreter, owned by the benchmark so no
//! change to the simulator can move it. Timed next to each pass, it
//! measures how fast the host is running interpreter-shaped code at
//! that moment, and throughput is reported at the probe's nominal
//! speed. The simulator's own speed still moves the reported value in
//! full; the host's drift mostly cancels.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe steps per second (in millions) that reported figures are
/// scaled to: roughly the probe's speed on the uncontended two-vCPU
/// host the benchmark was sized on.
pub const NOMINAL_MSTEPS: f64 = 450.0;

/// How long one probe reading runs.
const WINDOW: Duration = Duration::from_millis(40);

/// Interpreter steps per timed batch.
const BATCH: u32 = 50_000;

/// One probe instruction: opcode and three register operands.
type Op = (u8, u8, u8, u8);

/// The probe's program: arithmetic, loads, stores and a data-dependent
/// branch over a 64 Ki-word memory, the mix an interpreter loop sees.
const PROGRAM: [Op; 12] = [
    (0, 1, 1, 2),
    (1, 3, 1, 4),
    (2, 5, 3, 0),
    (3, 5, 1, 0),
    (0, 6, 5, 2),
    (4, 7, 6, 3),
    (1, 2, 7, 1),
    (0, 4, 4, 6),
    (2, 8, 4, 0),
    (3, 8, 2, 0),
    (5, 9, 9, 1),
    (6, 0, 0, 0),
];

/// Runs `steps` interpreter steps over `mem` (length a power of two).
fn interpret(mem: &mut [u32], steps: u32) -> u32 {
    let mut r = [0u32; 16];
    r[1] = 0x1234_5678;
    r[2] = 7;
    r[4] = 3;
    let mask = mem.len() as u32 - 1;
    let mut pc = 0;
    for _ in 0..steps {
        let (op, a, b, c) = PROGRAM[pc];
        let (a, b, c) = (usize::from(a), usize::from(b), usize::from(c));
        pc += 1;
        match op {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b] ^ r[c].rotate_left(3),
            2 => r[a] = mem[(r[b] & mask) as usize],
            3 => {
                mem[((r[b].wrapping_mul(2_654_435_761) >> 8) & mask) as usize] =
                    r[a].wrapping_add(r[c])
            }
            4 => {
                r[a] = if r[b] & 1 == 0 {
                    r[b] >> 1
                } else {
                    r[b].wrapping_mul(3).wrapping_add(1)
                }
            }
            5 => {
                r[a] = r[b].wrapping_add(c as u32);
                if r[a] & 3 == 0 {
                    pc = 0;
                }
            }
            _ => pc = 0,
        }
        if pc == PROGRAM.len() {
            pc = 0;
        }
    }
    r[1] ^ r[9]
}

/// The probe with its memory.
pub struct Probe {
    mem: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            mem: (0..1u32 << 18)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }
}

impl Probe {
    /// The host's current speed: probe steps per second, in millions.
    pub fn msteps(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut batches = 0u32;
        while batches == 0 || t0.elapsed() < WINDOW {
            black_box(interpret(black_box(&mut self.mem), black_box(BATCH)));
            batches += 1;
        }
        f64::from(batches) * f64::from(BATCH) / t0.elapsed().as_secs_f64() / 1e6
    }
}
