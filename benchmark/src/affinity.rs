//! One core for the whole run.
//!
//! On a small virtual machine the largest source of run-to-run noise is
//! not the code under test but where its threads run: when client and
//! server sit on different vCPUs every message wakes a halted vCPU, and
//! how long that takes is the host's business (on the 2-vCPU box this was
//! written on, `dc_tcp` then spreads by 9-14 % between the quartiles of
//! ten runs, with single runs 23 % off). Sharing one core makes a wake-up
//! a plain context switch, and `dc_tcp` spreads by 3-6 % like the
//! workloads that never wait. What is given up is
//! overlap between client and server; what is measured is the CPU path
//! length of a transaction across both processes, which is what a code
//! change moves.

const MASK_WORDS: usize = 16; // 1024 CPUs, the size of glibc's cpu_set_t

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread and process it starts from
/// now on, to the highest-numbered CPU it is allowed to use. Returns that
/// CPU, or `None` if the kernel refused (the run then goes unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the call only reads it.
    (unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // In a thread of its own: affinity is per thread, and the other
        // tests should keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread narrow its own mask");
            let mut now = [0u64; MASK_WORDS];
            // SAFETY: as in `pin_to_one_cpu`.
            let rc = unsafe { sched_getaffinity(0, size_of_val(&now), now.as_mut_ptr()) };
            assert_eq!(rc, 0);
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[cpu / 64] >> (cpu % 64) & 1, 1);
        })
        .join()
        .expect("pinning thread");
    }
}
