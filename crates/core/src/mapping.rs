//! Profile-guided page placement: mapping hot pages to high-performance
//! rows (§8.1 "CLR-DRAM Data Mapping").
//!
//! The paper's evaluation configures X % of all DRAM rows as
//! high-performance rows and maps the X % *most frequently accessed* pages
//! of each workload into them, mimicking the profiling-based placement of
//! CHARM and TL-DRAM. With a row-major interleaving the high-performance
//! region is the low-row-index prefix of every bank, which corresponds to a
//! contiguous prefix of the physical address space; page placement then
//! reduces to a page-granularity translation table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::PhysAddr;
use crate::error::CoreError;
use crate::geometry::DramGeometry;

/// Default OS page size used throughout the evaluation.
pub const PAGE_BYTES: u64 = 4096;

/// Hashes page numbers for the profile and placement maps with one
/// multiply by an odd constant and a rotate, which brings the product's
/// well-mixed high bits down to the low bits the table indexes by (core
/// tags differ only in high page bits). Nothing depends on the maps'
/// iteration order: [`PageProfile::pages_by_heat`] breaks ties by page
/// number, and translation looks pages up one at a time. The keys come
/// from the workload generators, never from outside input, so the
/// hasher needs no protection against crafted collisions.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

/// A map keyed by page number.
type PageMap = HashMap<u64, u64, BuildHasherDefault<PageHasher>>;

/// Per-page access-count profile of a workload.
///
/// Collected by a first (functional) pass over the trace; consumed by
/// [`PagePlacement::profile_guided`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageProfile {
    counts: PageMap,
}

impl PageProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to the page containing `addr`.
    pub fn record(&mut self, addr: PhysAddr) {
        *self.counts.entry(addr.page(PAGE_BYTES)).or_insert(0) += 1;
    }

    /// Number of distinct pages touched.
    pub fn pages_touched(&self) -> usize {
        self.counts.len()
    }

    /// Total recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Pages sorted by descending access count (ties broken by page number
    /// for determinism).
    pub fn pages_by_heat(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of all accesses covered by the hottest `fraction` of pages
    /// — the §8.2 scaling analysis (e.g. 462.libquantum's top 25 % of pages
    /// cover 26.4 % of accesses; 450.soplex's cover 85.2 %).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0`.
    pub fn access_coverage(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction));
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let by_heat = self.pages_by_heat();
        let take = (by_heat.len() as f64 * fraction).round() as usize;
        let covered: u64 = by_heat.iter().take(take).map(|&(_, c)| c).sum();
        covered as f64 / total as f64
    }
}

/// A page-granularity translation from workload (virtual) pages to
/// physical frames, placing hot pages in the high-performance region.
///
/// Frames `[0, hp_frames)` lie in high-performance rows; frames
/// `[hp_frames, total_frames)` lie in max-capacity rows. Pages never seen
/// during profiling are assigned frames on demand from the max-capacity
/// region first (cold data should not consume fast frames), falling back to
/// remaining fast frames.
#[derive(Debug, Clone)]
pub struct PagePlacement {
    table: PageMap,
    /// Usable frames inside the high-performance region (half its nominal
    /// capacity).
    hp_frames: u64,
    /// Nominal frames spanned by the high-performance rows; cold
    /// allocation starts beyond this boundary.
    hp_region_frames: u64,
    total_frames: u64,
    next_cold: u64,
    next_hot: u64,
}

impl PagePlacement {
    /// Builds a profile-guided placement.
    ///
    /// * `profile` — page heat from a profiling pass;
    /// * `fraction_hp_rows` — X, the fraction of rows configured as
    ///   high-performance; the hottest pages are packed into the fast
    ///   region in heat order.
    ///
    /// The fast region spans the first `fraction_hp_rows` of the physical
    /// address space (row-major interleaving). High-performance rows hold
    /// half the data of a max-capacity row, so the *usable* fast frames are
    /// half of the region's nominal frames; the placement accounts for
    /// that, exactly like the paper's footnote 2 (½ · 2^X pages per row
    /// group).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFraction`] if `fraction_hp_rows` is
    /// outside `0.0..=1.0`.
    pub fn profile_guided(
        profile: &PageProfile,
        fraction_hp_rows: f64,
        geometry: &DramGeometry,
    ) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&fraction_hp_rows) {
            return Err(CoreError::InvalidFraction {
                got: fraction_hp_rows,
            });
        }
        let total_frames = geometry.capacity_bytes() / PAGE_BYTES;
        // Usable fast frames: half the nominal capacity of the HP region
        // (coupled cells halve density). Cold pages must skip the *whole*
        // region spanned by high-performance rows — frames between
        // `hp_frames` and `hp_region_frames` are capacity lost to
        // coupling, and frames beyond map to max-capacity rows.
        let hp_region_frames = (total_frames as f64 * fraction_hp_rows).ceil() as u64;
        let hp_frames = hp_region_frames / 2;
        let ranked = profile.pages_by_heat();
        let mut this = PagePlacement {
            table: PageMap::with_capacity_and_hasher(ranked.len(), Default::default()),
            hp_frames,
            hp_region_frames,
            total_frames,
            next_cold: hp_region_frames,
            next_hot: 0,
        };
        let hot_target = (ranked.len() as f64 * fraction_hp_rows).round() as usize;
        for (i, (page, _)) in ranked.into_iter().enumerate() {
            let frame = if i < hot_target && this.next_hot < hp_frames {
                let f = this.next_hot;
                this.next_hot += 1;
                f
            } else {
                this.alloc_cold()?
            };
            this.table.insert(page, frame);
        }
        Ok(this)
    }

    fn alloc_cold(&mut self) -> Result<u64, CoreError> {
        if self.next_cold < self.total_frames {
            let f = self.next_cold;
            self.next_cold += 1;
            Ok(f)
        } else if self.next_hot < self.hp_frames {
            // Cold region exhausted; spill into remaining fast frames.
            let f = self.next_hot;
            self.next_hot += 1;
            Ok(f)
        } else {
            Err(CoreError::PlacementOverflow {
                requested: self.table.len() + 1,
                available: self.usable_frames() as usize,
            })
        }
    }

    /// Frames that can hold data: every frame but those the
    /// high-performance region loses to coupling.
    fn usable_frames(&self) -> u64 {
        self.total_frames - (self.hp_region_frames - self.hp_frames)
    }

    /// Translates a workload address through the placement. Pages not seen
    /// during profiling are allocated a cold frame on first touch.
    pub fn translate(&mut self, addr: PhysAddr) -> PhysAddr {
        let page = addr.page(PAGE_BYTES);
        let offset = addr.0 % PAGE_BYTES;
        let frame = match self.table.get(&page) {
            Some(&f) => f,
            None => {
                let f = self.alloc_cold().unwrap_or(page % self.total_frames);
                self.table.insert(page, f);
                f
            }
        };
        PhysAddr(frame * PAGE_BYTES + offset)
    }

    /// Number of usable frames in the high-performance region.
    pub fn hp_frames(&self) -> u64 {
        self.hp_frames
    }

    /// Whether a *translated* physical address falls in the
    /// high-performance region (i.e. maps to high-performance rows).
    pub fn is_fast(&self, translated: PhysAddr) -> bool {
        translated.page(PAGE_BYTES) < self.hp_region_frames
    }

    /// Number of pages with an assigned frame.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(counts: &[(u64, u64)]) -> PageProfile {
        let mut p = PageProfile::new();
        for &(page, count) in counts {
            for _ in 0..count {
                p.record(PhysAddr(page * PAGE_BYTES));
            }
        }
        p
    }

    #[test]
    fn profile_ranks_by_heat() {
        let p = profile_with(&[(1, 5), (2, 10), (3, 1)]);
        assert_eq!(p.pages_by_heat()[0].0, 2);
        assert_eq!(p.pages_touched(), 3);
        assert_eq!(p.total_accesses(), 16);
    }

    #[test]
    fn coverage_of_skewed_profile() {
        // One page with 85 accesses among 4 pages: top 25% covers 85%.
        let p = profile_with(&[(0, 85), (1, 5), (2, 5), (3, 5)]);
        assert!((p.access_coverage(0.25) - 0.85).abs() < 1e-9);
        assert!((p.access_coverage(1.0) - 1.0).abs() < 1e-9);
        assert_eq!(p.access_coverage(0.0), 0.0);
    }

    #[test]
    fn hot_pages_land_in_fast_frames() {
        let g = DramGeometry::tiny();
        let p = profile_with(&[(10, 100), (20, 50), (30, 2), (40, 1)]);
        let mut placement = PagePlacement::profile_guided(&p, 0.5, &g).unwrap();
        // Hottest half of pages (10, 20) must be in the fast region.
        for (page, fast) in [(10u64, true), (20, true), (30, false), (40, false)] {
            let t = placement.translate(PhysAddr(page * PAGE_BYTES));
            assert_eq!(placement.is_fast(t), fast, "page {page}");
        }
    }

    #[test]
    fn zero_fraction_uses_no_fast_frames() {
        let g = DramGeometry::tiny();
        let p = profile_with(&[(1, 10), (2, 5)]);
        let mut placement = PagePlacement::profile_guided(&p, 0.0, &g).unwrap();
        assert_eq!(placement.hp_frames(), 0);
        let t = placement.translate(PhysAddr(PAGE_BYTES));
        assert!(!placement.is_fast(t));
    }

    #[test]
    fn translation_preserves_offset_and_is_stable() {
        let g = DramGeometry::tiny();
        let p = profile_with(&[(3, 10)]);
        let mut placement = PagePlacement::profile_guided(&p, 0.25, &g).unwrap();
        let a = placement.translate(PhysAddr(3 * PAGE_BYTES + 123));
        let b = placement.translate(PhysAddr(3 * PAGE_BYTES + 123));
        assert_eq!(a, b);
        assert_eq!(a.0 % PAGE_BYTES, 123);
    }

    #[test]
    fn unseen_pages_get_cold_frames() {
        let g = DramGeometry::tiny();
        let p = profile_with(&[(1, 10)]);
        let mut placement = PagePlacement::profile_guided(&p, 0.5, &g).unwrap();
        let t = placement.translate(PhysAddr(99 * PAGE_BYTES));
        assert!(!placement.is_fast(t));
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        let g = DramGeometry::tiny();
        let p = PageProfile::new();
        assert!(matches!(
            PagePlacement::profile_guided(&p, 1.5, &g),
            Err(CoreError::InvalidFraction { .. })
        ));
    }

    #[test]
    fn fast_region_respects_halved_capacity() {
        let g = DramGeometry::tiny();
        let total_frames = g.capacity_bytes() / PAGE_BYTES;
        let p = PageProfile::new();
        let placement = PagePlacement::profile_guided(&p, 1.0, &g).unwrap();
        // All rows HP → only half the nominal frames are usable.
        assert_eq!(placement.hp_frames(), total_frames / 2);
    }

    #[test]
    fn overflow_reports_the_usable_frames() {
        let g = DramGeometry::tiny();
        let total_frames = g.capacity_bytes() / PAGE_BYTES;
        // At 25 % HP the region's coupled half is lost capacity.
        let usable = total_frames - total_frames / 8;
        let pages: Vec<(u64, u64)> = (0..=usable).map(|page| (page, 1)).collect();
        let err = PagePlacement::profile_guided(&profile_with(&pages), 0.25, &g).unwrap_err();
        let fits = PagePlacement::profile_guided(&profile_with(&pages[1..]), 0.25, &g);
        assert!(fits.is_ok(), "exactly the usable frames must fit");
        assert_eq!(
            err,
            CoreError::PlacementOverflow {
                requested: usable as usize + 1,
                available: usable as usize,
            }
        );
    }
}
