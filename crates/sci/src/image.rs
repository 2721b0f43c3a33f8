//! Zero-filled memory for database images.
//!
//! Every image-sized buffer of the system — an engine's regions and undo
//! shadow, the images recovery and replicas rebuild, a node's exported
//! segments — starts as zeroes and is then filled front to back. The
//! allocation itself is free (`calloc` maps fresh pages), but the fill
//! takes one page fault per 4 KiB: on a 40 MiB image that is ten thousand
//! faults, a large share of a set-up's or a recovery's time. [`zeroed`]
//! asks the kernel to back the buffer with 2 MiB pages instead, before any
//! byte is touched, so the same fill takes one fault per 2 MiB.

/// The huge-page size [`zeroed`] advises for. Only the part of a buffer
/// that spans whole, aligned huge pages is advised.
pub const HUGE_PAGE: usize = 2 << 20;

/// A zero-filled buffer of `len` bytes, allocated like `vec![0; len]`
/// (untouched), whose aligned 2 MiB interior is advised for transparent
/// huge pages (`madvise(MADV_HUGEPAGE)`) on Linux. A buffer that spans no
/// aligned huge page, another OS, and Miri get plain `vec![0; len]`. The
/// advice is best effort: when the kernel declines it, the buffer is the
/// same, only its fill pays 4 KiB faults.
///
/// # Examples
///
/// ```
/// let image = perseas_sci::image::zeroed(3 << 20);
/// assert_eq!(image.len(), 3 << 20);
/// assert!(image.iter().all(|&b| b == 0));
/// ```
pub fn zeroed(len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    advise_huge_pages(&mut buf);
    buf
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_buf: &mut [u8]) {}

/// Advises the aligned 2 MiB interior of `buf`, if it has one.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(buf: &mut [u8]) {
    use std::ffi::{c_int, c_void};

    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    let start = buf.as_mut_ptr() as usize;
    let first = start.next_multiple_of(HUGE_PAGE);
    let end = (start + buf.len()) / HUGE_PAGE * HUGE_PAGE;
    if first >= end {
        return;
    }
    // SAFETY: `[first, end)` lies inside `buf`, which is borrowed mutably
    // for the call, so no other reference observes it. MADV_HUGEPAGE only
    // changes which page size later faults map; it never changes the
    // bytes (all zero), the protection or the lifetime of the mapping. The
    // result is ignored because the call is only advice.
    let _ = unsafe {
        madvise(
            buf.as_mut_ptr().add(first - start).cast::<c_void>(),
            end - first,
            MADV_HUGEPAGE,
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `VmFlags` of the `/proc/self/smaps` mapping that holds `addr`.
    fn vm_flags_at(addr: usize) -> String {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut inside = false;
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'))
                .and_then(|(lo, hi)| {
                    Some((
                        usize::from_str_radix(lo, 16).ok()?,
                        usize::from_str_radix(hi, 16).ok()?,
                    ))
                });
            if let Some((lo, hi)) = range {
                inside = (lo..hi).contains(&addr);
            } else if let Some(flags) = line.strip_prefix("VmFlags:") {
                if inside {
                    return flags.trim().to_string();
                }
            }
        }
        panic!("no mapping holds {addr:#x}");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn an_image_is_zero_and_advised_for_huge_pages() {
        let len = 8 << 20;
        let image = zeroed(len);
        assert_eq!(image.len(), len);
        if std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists() {
            let interior = (image.as_ptr() as usize).next_multiple_of(HUGE_PAGE);
            let flags = vm_flags_at(interior);
            assert!(
                flags.split_whitespace().any(|f| f == "hg"),
                "VmFlags of the image: {flags}"
            );
        }
        assert!(image.iter().all(|&b| b == 0));
    }

    #[test]
    fn small_and_empty_images_are_plain_zeroes() {
        for len in [0, 1, 4096, HUGE_PAGE - 1, HUGE_PAGE + 1] {
            let image = zeroed(len);
            assert_eq!(image.len(), len);
            assert!(image.iter().all(|&b| b == 0));
        }
    }
}
