//! Spreads reps evenly over the CPUs the process may run on.
//!
//! On a small virtual machine the CPUs can differ in speed by more than
//! the spread a benchmark may have, and a single-threaded process tends to
//! stay on whichever CPU it started on, so its median depends on where it
//! landed. Moving the benchmark thread to CPU `rep mod n` before each rep,
//! and then lifting the restriction again, gives every run the same mix
//! of CPUs while leaving the threads the simulator starts free to run
//! anywhere.

/// CPU-set words: room for 1024 CPUs.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The calling thread's CPU set.
#[cfg(target_os = "linux")]
fn get() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc >= 0).then_some(mask)
}

/// Restricts the calling thread to `mask`; false if the kernel refused.
#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed, only
    // read by the kernel, and pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_mask: &[u64; WORDS]) -> bool {
    false
}

/// The CPUs the process may use, and a way to start a rep on each in turn.
#[derive(Debug)]
pub struct Spreader {
    all: [u64; WORDS],
    cpus: Vec<usize>,
}

impl Spreader {
    /// Reads the allowed CPUs; `None` where the platform cannot say.
    pub fn new() -> Option<Self> {
        let all = get()?;
        let cpus = (0..WORDS * 64)
            .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Some(Spreader { all, cpus })
    }

    /// How many CPUs reps are spread over.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Moves the calling thread to the `rep`-th CPU (round robin), then
    /// allows every CPU again, so threads started from here on are free.
    pub fn move_for(&self, rep: u32) {
        let cpu = self.cpus[rep as usize % self.cpus.len()];
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        if set(&one) {
            set(&self.all);
        }
    }
}
