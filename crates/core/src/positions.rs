//! Sorted position-set operations and the flat posting-list store.
//!
//! Inverted-database rows store their occurrence positions as sorted
//! vertex lists; gains need intersection *counts*, merges need exact
//! intersections, differences, and unions.
//!
//! Two layers live here:
//!
//! * free functions over sorted slices (`intersect`, `union`, …) — the
//!   reference set algebra that the store's sparse kernels call and its
//!   tests compare against. Gains read rows only through
//!   [`PostingStore`]. `intersect` / `intersect_count` gallop
//!   (exponential probe + binary search) when one side is
//!   ≥ [`GALLOP_SKEW`]× longer than the other;
//! * [`PostingStore`] — an arena that packs every row's positions into
//!   one contiguous `Vec<VertexId>` and hands out `(offset, len)` spans
//!   ([`RowId`]), with in-place difference/union over spans and a
//!   free-list for recycled rows. This is the merge loop's backing
//!   store: rows shrink or die in place and only union rows ever move,
//!   so steady-state mining allocates nothing per merge. Gain scoring
//!   only ever *reads* rows through `&self`, so the engine's parallel
//!   scorer shares the one arena across its worker threads without
//!   cloning a single row.
//!
//! # Adaptive row representation
//!
//! Each row is stored in one of two layouts, chosen per row by density:
//!
//! * **Sparse** — the classic sorted `u32` id slice;
//! * **Bitmap** — a chunked fixed-width bitmap: `u32` words over the
//!   same arena, allocated in blocks of [`BLOCK_WORDS`] words (64
//!   bytes), with a block-aligned `base` id so two bitmaps always
//!   word-align against each other.
//!
//! A row flips to bitmap when it is long (≥ [`BITMAP_MIN_LEN`]) *and*
//! dense (`len ≥ 4·words`, i.e. ≥ 1/8 of the covered id range); it
//! flips back to sparse only when it falls below `len < words` (1/32
//! density). The gap between the two thresholds is deliberate
//! hysteresis: merge-loop rows that hover near the boundary do not
//! thrash between layouts.
//!
//! Set operations dispatch on the pairing:
//!
//! | pairing         | count                         | materialise            |
//! |-----------------|-------------------------------|------------------------|
//! | sparse×sparse   | two-pointer, galloping on skew| two-pointer / gallop   |
//! | sparse×bitmap   | per-id word probes            | per-id word probes     |
//! | bitmap×bitmap   | branch-free `x & y` + popcount| word AND + bit extract |
//!
//! The representation is purely an in-memory concern: every public
//! reader hands back **sorted ids** (see [`PostingStore::positions`]),
//! the on-disk snapshot format is unchanged, and because every kernel
//! computes the exact same integer set algebra, mining is bit-identical
//! to the sparse-only store.

use std::borrow::Cow;

use cspm_graph::VertexId;

/// Length skew ratio at which slice intersection switches from the
/// two-pointer loop to galloping search in the longer side.
pub const GALLOP_SKEW: usize = 8;

/// Words per bitmap allocation block: 16 × `u32` = 64 bytes = 512 ids.
pub const BLOCK_WORDS: usize = 16;

/// Ids covered per block (`BLOCK_WORDS · 32`). Bitmap `base` ids are
/// multiples of this, so any two bitmaps are word-aligned to each other.
const BLOCK_BITS: u32 = (BLOCK_WORDS as u32) * 32;

/// Minimum row length before a bitmap is even considered: short rows
/// are cheap in any layout and the sparse kernels are cache-friendlier.
pub const BITMAP_MIN_LEN: usize = 128;

/// First index `i ≥ lo` with `s[i] ≥ target`, by exponential probe then
/// binary search — O(log distance) instead of O(distance).
pub(crate) fn gallop_to(s: &[VertexId], target: VertexId, lo: usize) -> usize {
    let mut prev = lo;
    let mut cur = lo;
    let mut step = 1;
    while cur < s.len() && s[cur] < target {
        prev = cur + 1;
        cur += step;
        step <<= 1;
    }
    let hi = cur.min(s.len());
    prev + s[prev..hi].partition_point(|&x| x < target)
}

fn gallop_intersect_count(small: &[VertexId], large: &[VertexId]) -> usize {
    let mut n = 0;
    let mut lo = 0;
    for &v in small {
        lo = gallop_to(large, v, lo);
        if lo == large.len() {
            break;
        }
        if large[lo] == v {
            n += 1;
            lo += 1;
        }
    }
    n
}

fn gallop_intersect_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut lo = 0;
    for &v in small {
        lo = gallop_to(large, v, lo);
        if lo == large.len() {
            break;
        }
        if large[lo] == v {
            out.push(v);
            lo += 1;
        }
    }
}

/// `|a ∩ b|` for sorted slices. Gallops through the longer side when
/// lengths are skewed ≥ [`GALLOP_SKEW`]×.
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    if a.len() * GALLOP_SKEW <= b.len() {
        return gallop_intersect_count(a, b);
    }
    if b.len() * GALLOP_SKEW <= a.len() {
        return gallop_intersect_count(b, a);
    }
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `a ∩ b` for sorted slices. Gallops through the longer side when
/// lengths are skewed ≥ [`GALLOP_SKEW`]×.
pub fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if a.len() * GALLOP_SKEW <= b.len() {
        gallop_intersect_into(a, b, &mut out);
        return out;
    }
    if b.len() * GALLOP_SKEW <= a.len() {
        gallop_intersect_into(b, a, &mut out);
        return out;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Removes every element of sorted `b` from sorted `a`, in place.
pub fn difference_inplace(a: &mut Vec<VertexId>, b: &[VertexId]) {
    if b.is_empty() {
        return;
    }
    let mut j = 0;
    a.retain(|&x| {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        !(j < b.len() && b[j] == x)
    });
}

/// `a ∪ b` for sorted slices.
pub fn union(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------
// Bitmap kernels. `base` is always a multiple of BLOCK_BITS, so any two
// bitmaps have word-aligned offsets against each other and the mixed
// kernels below never shift across word boundaries.
// ---------------------------------------------------------------------

/// Block-aligned `(base, words)` shape covering `[min, max]`, with
/// `words` rounded up to a whole number of blocks. All arithmetic is
/// u64 so a range ending near `u32::MAX` cannot overflow.
fn bitmap_shape(min: VertexId, max: VertexId) -> (VertexId, usize) {
    debug_assert!(min <= max);
    let base = min & !(BLOCK_BITS - 1);
    let span = max as u64 - base as u64 + 1;
    let words = span.div_ceil(32) as usize;
    (base, words.next_multiple_of(BLOCK_WORDS))
}

/// Bitmap flip-in predicate: long enough and ≥ 1/8 dense over its
/// covered range. The flip-*out* threshold is `len < words` (1/32);
/// the gap is the hysteresis band.
fn wants_bitmap(len: usize, words: usize) -> bool {
    len >= BITMAP_MIN_LEN && len >= 4 * words
}

#[inline]
fn bitmap_contains(base: VertexId, bits: &[VertexId], v: VertexId) -> bool {
    if v < base {
        return false;
    }
    let d = v - base;
    let w = (d / 32) as usize;
    w < bits.len() && (bits[w] >> (d & 31)) & 1 == 1
}

/// `|ids ∩ bitmap|` via per-id word probes; the membership test is a
/// shift-and-mask folded straight into the accumulator (no taken branch
/// on the hit path).
fn sparse_bitmap_count(ids: &[VertexId], base: VertexId, bits: &[VertexId]) -> usize {
    let mut n = 0usize;
    for &v in ids {
        n += bitmap_contains(base, bits, v) as usize;
    }
    n
}

fn sparse_bitmap_into(
    ids: &[VertexId],
    base: VertexId,
    bits: &[VertexId],
    out: &mut Vec<VertexId>,
) {
    for &v in ids {
        if bitmap_contains(base, bits, v) {
            out.push(v);
        }
    }
}

/// Word ranges of two bitmaps restricted to their overlap: returns
/// `(a_skip, b_skip, len, lo_base)` or `None` when the ranges are
/// disjoint.
fn bitmap_overlap(
    abase: VertexId,
    awords: usize,
    bbase: VertexId,
    bwords: usize,
) -> Option<(usize, usize, usize, VertexId)> {
    let lo_base = abase.max(bbase);
    let a_skip = ((lo_base - abase) / 32) as usize;
    let b_skip = ((lo_base - bbase) / 32) as usize;
    if a_skip >= awords || b_skip >= bwords {
        return None;
    }
    Some((
        a_skip,
        b_skip,
        (awords - a_skip).min(bwords - b_skip),
        lo_base,
    ))
}

/// `|a ∩ b|` for two bitmaps: branch-free word loop, one AND + popcount
/// per word pair.
fn bitmap_bitmap_count(
    abase: VertexId,
    abits: &[VertexId],
    bbase: VertexId,
    bbits: &[VertexId],
) -> usize {
    match bitmap_overlap(abase, abits.len(), bbase, bbits.len()) {
        None => 0,
        Some((a_skip, b_skip, len, _)) => abits[a_skip..a_skip + len]
            .iter()
            .zip(&bbits[b_skip..b_skip + len])
            .map(|(&x, &y)| (x & y).count_ones() as usize)
            .sum(),
    }
}

/// `a ∩ b` for two bitmaps, emitted as sorted ids: word AND, then set
/// bits extracted with `trailing_zeros` / clear-lowest.
fn bitmap_bitmap_into(
    abase: VertexId,
    abits: &[VertexId],
    bbase: VertexId,
    bbits: &[VertexId],
    out: &mut Vec<VertexId>,
) {
    let Some((a_skip, b_skip, len, lo_base)) =
        bitmap_overlap(abase, abits.len(), bbase, bbits.len())
    else {
        return;
    };
    for k in 0..len {
        let mut m = abits[a_skip + k] & bbits[b_skip + k];
        if m == 0 {
            continue;
        }
        // A set bit exists, so word_base + 31 ≤ u32::MAX and the cast
        // cannot truncate.
        let word_base = (lo_base as u64 + k as u64 * 32) as u32;
        while m != 0 {
            out.push(word_base + m.trailing_zeros());
            m &= m - 1;
        }
    }
}

/// Decodes a bitmap back to sorted ids.
fn decode_bitmap(base: VertexId, bits: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    for (w, &word) in bits.iter().enumerate() {
        let mut m = word;
        if m == 0 {
            continue;
        }
        let word_base = (base as u64 + w as u64 * 32) as u32;
        while m != 0 {
            out.push(word_base + m.trailing_zeros());
            m &= m - 1;
        }
    }
    out
}

/// A row's in-memory layout, borrowed from the arena: the single
/// dispatch point for every kernel pairing.
#[derive(Debug, Clone, Copy)]
enum RowKind<'a> {
    Sparse(&'a [VertexId]),
    Bitmap {
        base: VertexId,
        bits: &'a [VertexId],
    },
}

fn kind_intersect_count(a: RowKind<'_>, b: RowKind<'_>) -> usize {
    match (a, b) {
        (RowKind::Sparse(x), RowKind::Sparse(y)) => intersect_count(x, y),
        (RowKind::Sparse(ids), RowKind::Bitmap { base, bits })
        | (RowKind::Bitmap { base, bits }, RowKind::Sparse(ids)) => {
            sparse_bitmap_count(ids, base, bits)
        }
        (RowKind::Bitmap { base: ab, bits: ax }, RowKind::Bitmap { base: bb, bits: bx }) => {
            bitmap_bitmap_count(ab, ax, bb, bx)
        }
    }
}

fn kind_intersect_into(a: RowKind<'_>, b: RowKind<'_>, out: &mut Vec<VertexId>) {
    match (a, b) {
        (RowKind::Sparse(x), RowKind::Sparse(y)) => {
            if x.len() * GALLOP_SKEW <= y.len() {
                gallop_intersect_into(x, y, out);
            } else if y.len() * GALLOP_SKEW <= x.len() {
                gallop_intersect_into(y, x, out);
            } else {
                let (mut i, mut j) = (0, 0);
                while i < x.len() && j < y.len() {
                    match x[i].cmp(&y[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(x[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        (RowKind::Sparse(ids), RowKind::Bitmap { base, bits })
        | (RowKind::Bitmap { base, bits }, RowKind::Sparse(ids)) => {
            sparse_bitmap_into(ids, base, bits, out)
        }
        (RowKind::Bitmap { base: ab, bits: ax }, RowKind::Bitmap { base: bb, bits: bx }) => {
            bitmap_bitmap_into(ab, ax, bb, bx, out)
        }
    }
}

/// Handle to one posting list (row) inside a [`PostingStore`].
///
/// Row ids are stable for the lifetime of the row: spans may move inside
/// the arena (union growth, representation flips), but the id does not
/// change until the row is [released](PostingStore::release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(u32);

/// Per-row layout tag. For bitmap rows, `base` is the id of bit 0
/// (always a multiple of [`BLOCK_BITS`]) and `words` the number of
/// arena words in use (always a multiple of [`BLOCK_WORDS`],
/// `words ≤ cap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repr {
    Sparse,
    Bitmap { base: VertexId, words: usize },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: usize,
    /// Element count of the row — the number of ids — in **both**
    /// layouts, so `len(row)` never depends on the representation.
    len: usize,
    /// Span capacity in arena units: elements for sparse rows, words
    /// for bitmap rows.
    cap: usize,
    repr: Repr,
}

const EMPTY_SLOT: Slot = Slot {
    offset: 0,
    len: 0,
    cap: 0,
    repr: Repr::Sparse,
};

/// Row-representation policy for a [`PostingStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingPolicy {
    /// Flip dense rows to bitmaps (the production default).
    #[default]
    Adaptive,
    /// Keep every row a sorted id slice — the reference layout used by
    /// the equivalence tests and the `sparse` bench backend.
    SparseOnly,
}

/// Live representation mix and flip counters of a [`PostingStore`],
/// surfaced through `RunStats` and `cspm stats --json` so the density
/// thresholds are observable on real datasets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingReprStats {
    /// Live rows currently stored as sorted id slices.
    pub sparse_rows: usize,
    /// Live rows currently stored as bitmaps.
    pub bitmap_rows: usize,
    /// Sparse→bitmap transitions of an existing row (union growth);
    /// rows *inserted* directly as bitmaps are not flips.
    pub flips_to_bitmap: u64,
    /// Bitmap→sparse transitions (hysteresis shrink or a union whose
    /// widened range dilutes the row below the keep threshold).
    pub flips_to_sparse: u64,
}

/// Arena-backed flat storage for sorted posting lists.
///
/// All rows share one contiguous `data` vector; each row is a
/// `(offset, len)` span with some slack capacity, laid out sparse or as
/// a bitmap (see the module docs). The merge loop's three mutations map
/// onto the arena as:
///
/// * **difference** (`§IV-E`, shrinking a parent row) — in place, the
///   span keeps its offset and loses length (bitmap rows clear bits,
///   and flip back to sparse below the hysteresis floor);
/// * **union** (growing the `x ∪ y` row) — in place while the result
///   fits the span's capacity, otherwise the row moves to a larger span
///   and the old one joins the free-list (dense results flip to
///   bitmap);
/// * **release** (a parent row emptying) — the span joins the free-list
///   for reuse by later unions.
///
/// Sparse spans and bitmap blocks use **separate free-lists**: block
/// spans are word-granular (offset and capacity always multiples of
/// [`BLOCK_WORDS`]), so recycling can never hand a bitmap allocation an
/// unaligned or undersized span.
#[derive(Debug, Clone)]
pub struct PostingStore {
    data: Vec<VertexId>,
    slots: Vec<Slot>,
    /// Recycled slot ids (their spans already returned to a free-list).
    free_slots: Vec<u32>,
    /// Recycled sparse `(offset, cap)` spans, segregated by
    /// power-of-two size class (`free_spans[k]` holds caps in
    /// `[2^k, 2^(k+1))`), so allocation never scans more than a bounded
    /// prefix of one class.
    free_spans: Vec<Vec<(usize, usize)>>,
    /// Recycled bitmap blocks, same power-of-two classing over their
    /// word capacities; every entry is block-aligned and a whole number
    /// of blocks.
    free_blocks: Vec<Vec<(usize, usize)>>,
    /// Σ element count over live rows (representation-independent).
    live_elems: usize,
    /// Σ arena units in use by live rows: sparse len + bitmap words
    /// (for fragmentation diagnostics).
    live_units: usize,
    live_rows: usize,
    bitmap_rows: usize,
    flips_to_bitmap: u64,
    flips_to_sparse: u64,
    policy: PostingPolicy,
    /// Scratch for relocating unions; kept to avoid re-allocation.
    scratch: Vec<VertexId>,
}

impl Default for PostingStore {
    fn default() -> Self {
        Self {
            data: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            free_spans: vec![Vec::new(); usize::BITS as usize],
            free_blocks: vec![Vec::new(); usize::BITS as usize],
            live_elems: 0,
            live_units: 0,
            live_rows: 0,
            bitmap_rows: 0,
            flips_to_bitmap: 0,
            flips_to_sparse: 0,
            policy: PostingPolicy::Adaptive,
            scratch: Vec::new(),
        }
    }
}

/// Size class of a span capacity: `floor(log2(cap))`.
fn size_class(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl PostingStore {
    /// An empty store with the default [`PostingPolicy::Adaptive`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with an explicit representation policy.
    pub fn with_policy(policy: PostingPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// A store pre-sized for `total_positions` arena entries.
    pub fn with_capacity(total_positions: usize) -> Self {
        Self {
            data: Vec::with_capacity(total_positions),
            ..Self::default()
        }
    }

    /// A pre-sized store with an explicit representation policy.
    pub fn with_capacity_and_policy(total_positions: usize, policy: PostingPolicy) -> Self {
        Self {
            data: Vec::with_capacity(total_positions),
            policy,
            ..Self::default()
        }
    }

    /// The store's representation policy.
    pub fn policy(&self) -> PostingPolicy {
        self.policy
    }

    fn adaptive(&self) -> bool {
        self.policy == PostingPolicy::Adaptive
    }

    fn kind(&self, row: RowId) -> RowKind<'_> {
        let s = &self.slots[row.0 as usize];
        match s.repr {
            Repr::Sparse => RowKind::Sparse(&self.data[s.offset..s.offset + s.len]),
            Repr::Bitmap { base, words } => RowKind::Bitmap {
                base,
                bits: &self.data[s.offset..s.offset + words],
            },
        }
    }

    /// Copies a sorted position list into the arena; sparse spans are
    /// exact (no slack — build-time rows only ever shrink), dense rows
    /// go straight to a bitmap under the adaptive policy.
    pub fn insert(&mut self, positions: &[VertexId]) -> RowId {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be sorted"
        );
        let slot = 'layout: {
            if self.adaptive() && positions.len() >= BITMAP_MIN_LEN {
                let (base, words) = bitmap_shape(positions[0], *positions.last().unwrap());
                if wants_bitmap(positions.len(), words) {
                    let offset = self.alloc_blocks(words);
                    self.data[offset..offset + words].fill(0);
                    for &v in positions {
                        let d = v - base;
                        self.data[offset + (d / 32) as usize] |= 1 << (d & 31);
                    }
                    self.bitmap_rows += 1;
                    self.live_units += words;
                    break 'layout Slot {
                        offset,
                        len: positions.len(),
                        cap: words,
                        repr: Repr::Bitmap { base, words },
                    };
                }
            }
            let offset = self.alloc_span(positions.len());
            self.data[offset..offset + positions.len()].copy_from_slice(positions);
            self.live_units += positions.len();
            Slot {
                offset,
                len: positions.len(),
                cap: positions.len(),
                repr: Repr::Sparse,
            }
        };
        self.live_elems += positions.len();
        self.live_rows += 1;
        match self.free_slots.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                RowId(id)
            }
            None => {
                self.slots.push(slot);
                RowId(self.slots.len() as u32 - 1)
            }
        }
    }

    /// The row's positions as sorted ids, borrowed when sparse and
    /// decoded when bitmap. On-disk snapshots and every other external
    /// consumer go through here, so rows serialise canonically
    /// regardless of in-memory layout.
    pub fn positions(&self, row: RowId) -> Cow<'_, [VertexId]> {
        let s = self.slots[row.0 as usize];
        match s.repr {
            Repr::Sparse => Cow::Borrowed(&self.data[s.offset..s.offset + s.len]),
            Repr::Bitmap { base, words } => {
                Cow::Owned(decode_bitmap(base, &self.data[s.offset..s.offset + words]))
            }
        }
    }

    /// The row's length.
    pub fn len(&self, row: RowId) -> usize {
        self.slots[row.0 as usize].len
    }

    /// Returns the row's span to its free-list.
    pub fn release(&mut self, row: RowId) {
        let s = self.slots[row.0 as usize];
        self.live_elems -= s.len;
        match s.repr {
            Repr::Sparse => {
                self.live_units -= s.len;
                self.free_span(s.offset, s.cap);
            }
            Repr::Bitmap { words, .. } => {
                self.live_units -= words;
                self.bitmap_rows -= 1;
                self.free_block(s.offset, s.cap);
            }
        }
        self.live_rows -= 1;
        self.slots[row.0 as usize] = EMPTY_SLOT;
        self.free_slots.push(row.0);
    }

    /// `|row(a) ∩ row(b)|`, kernel-dispatched on the two layouts.
    pub fn intersect_count(&self, a: RowId, b: RowId) -> usize {
        kind_intersect_count(self.kind(a), self.kind(b))
    }

    /// `row(a) ∩ row(b)` as sorted ids.
    pub fn intersect(&self, a: RowId, b: RowId) -> Vec<VertexId> {
        let mut out = Vec::new();
        kind_intersect_into(self.kind(a), self.kind(b), &mut out);
        out
    }

    /// Writes `row(a) ∩ row(b)` into `out` (cleared first).
    pub fn intersect_into(&self, a: RowId, b: RowId, out: &mut Vec<VertexId>) {
        out.clear();
        kind_intersect_into(self.kind(a), self.kind(b), out);
    }

    /// `|row ∩ ids|` for an external sorted slice.
    pub fn intersect_count_slice(&self, row: RowId, ids: &[VertexId]) -> usize {
        match self.kind(row) {
            RowKind::Sparse(x) => intersect_count(x, ids),
            RowKind::Bitmap { base, bits } => sparse_bitmap_count(ids, base, bits),
        }
    }

    /// Removes every element of sorted `other` from the row, in place
    /// (the span keeps its capacity). Returns the new length. A bitmap
    /// row that falls below the hysteresis floor (`len < words`) flips
    /// back to sparse.
    pub fn difference(&mut self, row: RowId, other: &[VertexId]) -> usize {
        let s = self.slots[row.0 as usize];
        match s.repr {
            Repr::Sparse => {
                let span = &mut self.data[s.offset..s.offset + s.len];
                let mut write = 0;
                let mut j = 0;
                for read in 0..span.len() {
                    let x = span[read];
                    while j < other.len() && other[j] < x {
                        j += 1;
                    }
                    if j < other.len() && other[j] == x {
                        continue;
                    }
                    span[write] = x;
                    write += 1;
                }
                self.slots[row.0 as usize].len = write;
                self.live_elems -= s.len - write;
                self.live_units -= s.len - write;
                write
            }
            Repr::Bitmap { base, words } => {
                let mut removed = 0;
                for &v in other {
                    if v < base {
                        continue;
                    }
                    let d = v - base;
                    let w = (d / 32) as usize;
                    if w >= words {
                        continue;
                    }
                    let mask = 1u32 << (d & 31);
                    let word = &mut self.data[s.offset + w];
                    if *word & mask != 0 {
                        *word &= !mask;
                        removed += 1;
                    }
                }
                let new_len = s.len - removed;
                self.slots[row.0 as usize].len = new_len;
                self.live_elems -= removed;
                if new_len < words {
                    self.demote_to_sparse(row);
                    self.flips_to_sparse += 1;
                }
                new_len
            }
        }
    }

    /// Removes from the row, in place, every id whose bit is set in
    /// `marked` (a bitset over vertex ids: bit `v % 32` of word
    /// `v / 32`; ids past its end are unmarked). Returns how many ids it
    /// removed. Leaves the row as [`Self::difference`] with the marked
    /// ids would, but costs one probe per row element (one word
    /// operation per bitmap word) instead of a walk of the marked list,
    /// which is what a graph patch needs: many rows against one large
    /// dirty set. A bitmap row that loses ids and falls below the
    /// hysteresis floor flips back to sparse.
    pub fn remove_marked(&mut self, row: RowId, marked: &[u32]) -> usize {
        let s = self.slots[row.0 as usize];
        let removed = match s.repr {
            Repr::Sparse => {
                let is_marked = |v: VertexId| {
                    marked
                        .get(v as usize / 32)
                        .is_some_and(|&w| w >> (v % 32) & 1 != 0)
                };
                let span = &mut self.data[s.offset..s.offset + s.len];
                let mut write = 0;
                for read in 0..span.len() {
                    let x = span[read];
                    if !is_marked(x) {
                        span[write] = x;
                        write += 1;
                    }
                }
                self.slots[row.0 as usize].len = write;
                self.live_units -= s.len - write;
                s.len - write
            }
            Repr::Bitmap { base, words } => {
                let first = base as usize / 32;
                let mut removed = 0;
                for (w, word) in self.data[s.offset..s.offset + words].iter_mut().enumerate() {
                    let m = marked.get(first + w).copied().unwrap_or(0);
                    removed += (*word & m).count_ones() as usize;
                    *word &= !m;
                }
                self.slots[row.0 as usize].len = s.len - removed;
                if removed > 0 && s.len - removed < words {
                    self.demote_to_sparse(row);
                    self.flips_to_sparse += 1;
                }
                removed
            }
        };
        self.live_elems -= removed;
        removed
    }

    /// Merges sorted `other` into the row (set union), in place when the
    /// result fits the span's capacity, relocating the row otherwise.
    /// Returns the new length.
    ///
    /// Sparse rows: one comparison pass (merge into the reusable scratch
    /// buffer) plus one `memcpy` back into the arena — the same
    /// comparison work as an allocating union, without the allocation;
    /// a result dense enough for the flip-in threshold flips to a bitmap
    /// instead of copying back. Bitmap rows: when `other` lies inside
    /// the covered range the union is pure in-place bit sets; otherwise
    /// the bitmap regrows (or, if the widened range dilutes it below
    /// the keep threshold, decodes back to sparse).
    pub fn union_in_place(&mut self, row: RowId, other: &[VertexId]) -> usize {
        let s = self.slots[row.0 as usize];
        match s.repr {
            Repr::Sparse => self.union_sparse(row, s, other),
            Repr::Bitmap { base, words } => self.union_bitmap(row, s, base, words, other),
        }
    }

    fn union_sparse(&mut self, row: RowId, s: Slot, other: &[VertexId]) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.reserve(s.len + other.len());
        {
            let current = &self.data[s.offset..s.offset + s.len];
            let (mut i, mut j) = (0, 0);
            while i < current.len() && j < other.len() {
                match current[i].cmp(&other[j]) {
                    std::cmp::Ordering::Less => {
                        scratch.push(current[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        scratch.push(other[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        scratch.push(current[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            scratch.extend_from_slice(&current[i..]);
            scratch.extend_from_slice(&other[j..]);
        }
        let merged_len = scratch.len();
        if self.adaptive() && merged_len >= BITMAP_MIN_LEN {
            let (base, words) = bitmap_shape(scratch[0], *scratch.last().unwrap());
            if wants_bitmap(merged_len, words) {
                // Flip to bitmap: the merged ids live in scratch, so the
                // old span can be freed before the block is carved out.
                self.free_span(s.offset, s.cap);
                let offset = self.alloc_blocks(words);
                self.data[offset..offset + words].fill(0);
                for &v in &scratch {
                    let d = v - base;
                    self.data[offset + (d / 32) as usize] |= 1 << (d & 31);
                }
                self.slots[row.0 as usize] = Slot {
                    offset,
                    len: merged_len,
                    cap: words,
                    repr: Repr::Bitmap { base, words },
                };
                self.bitmap_rows += 1;
                self.flips_to_bitmap += 1;
                self.live_elems += merged_len - s.len;
                self.live_units = self.live_units - s.len + words;
                self.scratch = scratch;
                return merged_len;
            }
        }
        if merged_len <= s.cap {
            self.data[s.offset..s.offset + merged_len].copy_from_slice(&scratch);
            self.slots[row.0 as usize].len = merged_len;
        } else {
            // Relocate with slack: union rows tend to keep growing.
            self.free_span(s.offset, s.cap);
            let cap = merged_len + merged_len / 2;
            let offset = self.alloc_span(cap);
            self.data[offset..offset + merged_len].copy_from_slice(&scratch);
            self.slots[row.0 as usize] = Slot {
                offset,
                len: merged_len,
                cap,
                repr: Repr::Sparse,
            };
        }
        self.scratch = scratch;
        self.live_elems += merged_len - s.len;
        self.live_units += merged_len - s.len;
        merged_len
    }

    fn union_bitmap(
        &mut self,
        row: RowId,
        s: Slot,
        base: VertexId,
        words: usize,
        other: &[VertexId],
    ) -> usize {
        if other.is_empty() {
            return s.len;
        }
        let lo = other[0];
        let hi = *other.last().unwrap();
        let end = base as u64 + words as u64 * 32;
        if lo >= base && (hi as u64) < end {
            // Fast path: every new id already falls inside the covered
            // range — pure in-place bit sets.
            let mut added = 0;
            for &v in other {
                let d = v - base;
                let w = s.offset + (d / 32) as usize;
                let mask = 1u32 << (d & 31);
                added += (self.data[w] & mask == 0) as usize;
                self.data[w] |= mask;
            }
            self.slots[row.0 as usize].len = s.len + added;
            self.live_elems += added;
            return s.len + added;
        }
        // Regrow: widen the shape to the union of `other`'s range and
        // the row's *occupied* word range (tight, so a row that drifted
        // toward one end sheds its dead blocks on the way).
        let span = &self.data[s.offset..s.offset + words];
        let occupied = span.iter().position(|&w| w != 0).map(|fw| {
            let lw = span.iter().rposition(|&w| w != 0).unwrap();
            (fw, lw)
        });
        let (new_min, new_max) = match occupied {
            None => (lo, hi),
            Some((fw, lw)) => {
                let cur_min = (base as u64 + fw as u64 * 32) as u32;
                let cur_max = (base as u64 + lw as u64 * 32 + 31).min(u32::MAX as u64) as u32;
                (lo.min(cur_min), hi.max(cur_max))
            }
        };
        let (new_base, new_words) = bitmap_shape(new_min, new_max);
        let added = other
            .iter()
            .filter(|&&v| !bitmap_contains(base, span, v))
            .count();
        let new_len = s.len + added;
        if new_len >= new_words {
            // Stay bitmap.
            if new_base == base && new_words <= s.cap {
                // Extend (or shrink) within the existing block in place.
                if new_words > words {
                    self.data[s.offset + words..s.offset + new_words].fill(0);
                }
                for &v in other {
                    let d = v - new_base;
                    self.data[s.offset + (d / 32) as usize] |= 1 << (d & 31);
                }
                self.slots[row.0 as usize] = Slot {
                    offset: s.offset,
                    len: new_len,
                    cap: s.cap,
                    repr: Repr::Bitmap {
                        base: new_base,
                        words: new_words,
                    },
                };
            } else {
                // Relocate. Allocate BEFORE freeing the old block so the
                // allocator cannot hand back the span still being read.
                let new_off = self.alloc_blocks(new_words);
                self.data[new_off..new_off + new_words].fill(0);
                if let Some((fw, lw)) = occupied {
                    let delta = (base as i64 - new_base as i64) / 32;
                    let dst = (new_off as i64 + fw as i64 + delta) as usize;
                    self.data.copy_within(s.offset + fw..s.offset + lw + 1, dst);
                }
                for &v in other {
                    let d = v - new_base;
                    self.data[new_off + (d / 32) as usize] |= 1 << (d & 31);
                }
                self.free_block(s.offset, s.cap);
                self.slots[row.0 as usize] = Slot {
                    offset: new_off,
                    len: new_len,
                    cap: new_words,
                    repr: Repr::Bitmap {
                        base: new_base,
                        words: new_words,
                    },
                };
            }
            self.live_elems += added;
            self.live_units = self.live_units - words + new_words;
        } else {
            // The widened range dilutes the row below the keep
            // threshold: decode and merge back to a sparse span.
            let merged = union(&decode_bitmap(base, span), other);
            debug_assert_eq!(merged.len(), new_len);
            self.free_block(s.offset, s.cap);
            let offset = self.alloc_span(merged.len());
            self.data[offset..offset + merged.len()].copy_from_slice(&merged);
            self.slots[row.0 as usize] = Slot {
                offset,
                len: merged.len(),
                cap: merged.len(),
                repr: Repr::Sparse,
            };
            self.bitmap_rows -= 1;
            self.flips_to_sparse += 1;
            self.live_elems += added;
            self.live_units = self.live_units - words + merged.len();
        }
        new_len
    }

    /// Rewrites a bitmap row as an exact sparse span (hysteresis
    /// shrink). The decoded ids are owned before the block is freed, so
    /// the sparse allocation can never alias the span being read.
    fn demote_to_sparse(&mut self, row: RowId) {
        let s = self.slots[row.0 as usize];
        let Repr::Bitmap { base, words } = s.repr else {
            return;
        };
        let decoded = decode_bitmap(base, &self.data[s.offset..s.offset + words]);
        debug_assert_eq!(decoded.len(), s.len);
        self.free_block(s.offset, s.cap);
        let offset = self.alloc_span(decoded.len());
        self.data[offset..offset + decoded.len()].copy_from_slice(&decoded);
        self.slots[row.0 as usize] = Slot {
            offset,
            len: decoded.len(),
            cap: decoded.len(),
            repr: Repr::Sparse,
        };
        self.bitmap_rows -= 1;
        self.live_units = self.live_units - words + decoded.len();
    }

    /// Total arena length (live + slack + free), in arena units.
    pub fn arena_len(&self) -> usize {
        self.data.len()
    }

    /// Σ element count over live rows (layout-independent).
    pub fn live_len(&self) -> usize {
        self.live_elems
    }

    /// Estimated resident bytes: the arena payload plus slot metadata
    /// and free-list entries. Capacities, not lengths — a daemon's
    /// memory budget cares what the allocator holds, not what is live.
    pub fn approx_bytes(&self) -> usize {
        let spans: usize = self
            .free_spans
            .iter()
            .chain(self.free_blocks.iter())
            .map(|class| class.capacity() * std::mem::size_of::<(usize, usize)>())
            .sum();
        self.data.capacity() * std::mem::size_of::<VertexId>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + self.scratch.capacity() * std::mem::size_of::<VertexId>()
            + spans
    }

    /// Σ arena units in use by live rows: sparse lengths plus bitmap
    /// words. This — not [`Self::live_len`] — is what fragmentation is
    /// measured against.
    pub fn live_units(&self) -> usize {
        self.live_units
    }

    /// Live representation mix and flip counters.
    pub fn repr_stats(&self) -> PostingReprStats {
        PostingReprStats {
            sparse_rows: self.live_rows - self.bitmap_rows,
            bitmap_rows: self.bitmap_rows,
            flips_to_bitmap: self.flips_to_bitmap,
            flips_to_sparse: self.flips_to_sparse,
        }
    }

    /// Fragmentation pressure: `arena_len / live_units` (≥ 1.0). A
    /// ratio of 1.0 means every arena unit belongs to a live row; a
    /// long shrink/grow session drifts upward as spans accumulate slack
    /// and free-list fragments. An empty store reports 1.0; an all-dead
    /// store with arena data still allocated reports `INFINITY` —
    /// every unit is reclaimable, so any pressure threshold fires.
    pub fn fragmentation(&self) -> f64 {
        if self.live_units == 0 {
            if self.data.is_empty() {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.data.len() as f64 / self.live_units as f64
        }
    }

    /// Compacting rebuild: repacks every live row into a fresh arena
    /// with exact spans (no slack), and empties both free-lists.
    /// Afterwards `arena_len() == live_units()` and
    /// [`Self::fragmentation`] is 1.0.
    ///
    /// Bitmap rows are packed first: every block is a whole multiple of
    /// [`BLOCK_WORDS`], so packing them head-to-head from offset 0
    /// preserves block alignment without padding; sparse rows then fill
    /// the tail with exact spans. Row ids and representations survive
    /// compaction — only `(offset, cap)` change, never a row's identity
    /// or contents — so handles held by the inverted database stay
    /// valid. Recycled slot ids remain on the slot free-list for reuse
    /// by later inserts.
    pub fn compact(&mut self) {
        let mut data = Vec::with_capacity(self.live_units);
        for slot in &mut self.slots {
            if let Repr::Bitmap { words, .. } = slot.repr {
                let offset = data.len();
                data.extend_from_slice(&self.data[slot.offset..slot.offset + words]);
                slot.offset = offset;
                slot.cap = words;
            }
        }
        for slot in &mut self.slots {
            if slot.repr == Repr::Sparse {
                let offset = data.len();
                data.extend_from_slice(&self.data[slot.offset..slot.offset + slot.len]);
                slot.offset = offset;
                slot.cap = slot.len;
            }
        }
        debug_assert_eq!(data.len(), self.live_units);
        self.data = data;
        for class in &mut self.free_spans {
            class.clear();
        }
        for class in &mut self.free_blocks {
            class.clear();
        }
    }

    fn free_span(&mut self, offset: usize, cap: usize) {
        if cap > 0 {
            self.free_spans[size_class(cap)].push((offset, cap));
        }
    }

    fn free_block(&mut self, offset: usize, cap: usize) {
        if cap > 0 {
            debug_assert!(
                offset.is_multiple_of(BLOCK_WORDS) && cap.is_multiple_of(BLOCK_WORDS),
                "bitmap blocks must stay block-aligned"
            );
            self.free_blocks[size_class(cap)].push((offset, cap));
        }
    }

    /// Bounded same-class scan before falling through to a strictly
    /// larger class (whose every span is guaranteed to fit).
    const SAME_CLASS_PROBES: usize = 8;

    /// Finds or creates a sparse span of at least `need` capacity,
    /// splitting the chosen span when the remainder is still useful.
    /// Amortised O(1): at most [`Self::SAME_CLASS_PROBES`] candidates
    /// of `need`'s own size class are inspected, then the first
    /// non-empty larger class is popped.
    fn alloc_span(&mut self, need: usize) -> usize {
        if need == 0 {
            return 0;
        }
        let k = size_class(need);
        let same = &mut self.free_spans[k];
        for i in (same.len().saturating_sub(Self::SAME_CLASS_PROBES)..same.len()).rev() {
            if same[i].1 >= need {
                let (offset, cap) = same.swap_remove(i);
                return self.split_span(offset, cap, need);
            }
        }
        for kk in k + 1..self.free_spans.len() {
            while let Some((offset, cap)) = self.free_spans[kk].pop() {
                // Clamp: a span must never be handed out shorter than
                // requested. Classes above `need`'s own guarantee a fit
                // by the size-class invariant, but a span that was ever
                // filed one class too high (its cap is < 2^kk) would
                // silently corrupt the row copied into it. Verify the
                // fit and re-file offenders into their true class —
                // strictly below `kk` since cap < need < 2^kk, so this
                // loop terminates.
                if cap >= need {
                    return self.split_span(offset, cap, need);
                }
                self.free_span(offset, cap);
            }
        }
        let offset = self.data.len();
        self.data.resize(offset + need, 0);
        offset
    }

    fn split_span(&mut self, offset: usize, cap: usize, need: usize) -> usize {
        debug_assert!(cap >= need);
        self.free_span(offset + need, cap - need);
        offset
    }

    /// Finds or creates a bitmap block span of exactly `need` words
    /// (`need` a whole number of blocks), from the block free-list or
    /// the arena tail. Blocks never come from `free_spans` and sparse
    /// spans never come from `free_blocks`: the lists are word- vs
    /// element-granular, which is what keeps a recycled bitmap span
    /// from ever being handed out undersized or unaligned.
    fn alloc_blocks(&mut self, need: usize) -> usize {
        debug_assert!(need > 0 && need.is_multiple_of(BLOCK_WORDS));
        let k = size_class(need);
        let same = &mut self.free_blocks[k];
        for i in (same.len().saturating_sub(Self::SAME_CLASS_PROBES)..same.len()).rev() {
            if same[i].1 >= need {
                let (offset, cap) = same.swap_remove(i);
                return self.split_block(offset, cap, need);
            }
        }
        for kk in k + 1..self.free_blocks.len() {
            while let Some((offset, cap)) = self.free_blocks[kk].pop() {
                // Same misfile clamp as `alloc_span`: never hand out a
                // block shorter than requested, re-file it instead.
                if cap >= need {
                    return self.split_block(offset, cap, need);
                }
                self.free_block(offset, cap);
            }
        }
        // Arena tail, padded up to block alignment; the pad is filed as
        // an ordinary sparse span so the units are not wasted.
        let mut offset = self.data.len();
        let pad = offset.next_multiple_of(BLOCK_WORDS) - offset;
        if pad > 0 {
            self.data.resize(offset + pad, 0);
            self.free_span(offset, pad);
            offset += pad;
        }
        self.data.resize(offset + need, 0);
        offset
    }

    fn split_block(&mut self, offset: usize, cap: usize, need: usize) -> usize {
        debug_assert!(cap >= need);
        self.free_block(offset + need, cap - need);
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_and_count_agree() {
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![3, 4, 5, 9, 10];
        assert_eq!(intersect(&a, &b), vec![3, 5, 9]);
        assert_eq!(intersect_count(&a, &b), 3);
        assert_eq!(intersect_count(&a, &[]), 0);
    }

    /// The galloping path (≥8× length skew) must agree exactly with the
    /// two-pointer reference, including when the small side's elements
    /// fall before, between, and after the large side's range.
    #[test]
    fn galloping_matches_two_pointer_on_skewed_inputs() {
        let large: Vec<VertexId> = (0..400).map(|v| v * 3).collect();
        for small in [
            vec![],
            vec![0],
            vec![1],
            vec![1199],
            vec![1200],
            vec![5000],
            vec![0, 5, 6, 300, 301, 1197, 2000],
            (0..40).map(|v| v * 31).collect::<Vec<_>>(),
        ] {
            assert!(
                small.len() * GALLOP_SKEW <= large.len(),
                "fixture must skew"
            );
            // Reference: plain two-pointer, written out here so the test
            // does not depend on the production dispatch.
            let mut reference = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < small.len() && j < large.len() {
                match small[i].cmp(&large[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        reference.push(small[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            assert_eq!(intersect(&small, &large), reference, "{small:?}");
            assert_eq!(intersect(&large, &small), reference, "{small:?}");
            assert_eq!(intersect_count(&small, &large), reference.len());
            assert_eq!(intersect_count(&large, &small), reference.len());
        }
    }

    #[test]
    fn difference_removes_common() {
        let mut a = vec![1, 2, 3, 4, 5];
        difference_inplace(&mut a, &[2, 4, 6]);
        assert_eq!(a, vec![1, 3, 5]);
        difference_inplace(&mut a, &[]);
        assert_eq!(a, vec![1, 3, 5]);
    }

    #[test]
    fn union_merges_without_duplicates() {
        assert_eq!(union(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(union(&[], &[7]), vec![7]);
    }

    #[test]
    fn set_identities() {
        let a = vec![0, 2, 4, 6];
        let b = vec![1, 2, 3, 4];
        let i = intersect(&a, &b);
        let u = union(&a, &b);
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        assert_eq!(a.len() + b.len(), u.len() + i.len());
    }

    #[test]
    fn store_roundtrips_rows() {
        let mut st = PostingStore::new();
        let a = st.insert(&[1, 3, 5, 7]);
        let b = st.insert(&[2, 3, 5, 8]);
        assert_eq!(st.positions(a).as_ref(), &[1, 3, 5, 7]);
        assert_eq!(st.positions(b).as_ref(), &[2, 3, 5, 8]);
        assert_eq!(st.len(a), 4);
        assert_eq!(st.live_len(), 8);
        assert_eq!(st.intersect_count(a, b), 2);
        let mut out = Vec::new();
        st.intersect_into(a, b, &mut out);
        assert_eq!(out, vec![3, 5]);
    }

    #[test]
    fn store_difference_matches_reference() {
        let mut st = PostingStore::new();
        let r = st.insert(&[1, 2, 3, 4, 5, 9]);
        let removed = [2, 4, 6, 9];
        let mut reference = vec![1, 2, 3, 4, 5, 9];
        difference_inplace(&mut reference, &removed);
        let new_len = st.difference(r, &removed);
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());
        assert_eq!(new_len, reference.len());
        assert_eq!(st.live_len(), reference.len());
    }

    #[test]
    fn store_union_in_place_within_capacity() {
        let mut st = PostingStore::new();
        let r = st.insert(&[1, 4, 9, 12, 15, 20]);
        // Shrink first so the span has slack, then union back in.
        st.difference(r, &[4, 12, 20]);
        assert_eq!(st.positions(r).as_ref(), &[1, 9, 15]);
        let arena_before = st.arena_len();
        let n = st.union_in_place(r, &[2, 9, 16]);
        assert_eq!(st.positions(r).as_ref(), &[1, 2, 9, 15, 16]);
        assert_eq!(n, 5);
        // Fit inside the slack: the arena did not grow.
        assert_eq!(st.arena_len(), arena_before);
    }

    #[test]
    fn store_union_relocates_when_full() {
        let mut st = PostingStore::new();
        let r = st.insert(&[5, 10]);
        let n = st.union_in_place(r, &[1, 2, 3, 10, 11]);
        assert_eq!(n, 6);
        assert_eq!(st.positions(r).as_ref(), &[1, 2, 3, 5, 10, 11]);
        assert_eq!(st.live_len(), 6);
    }

    /// Regression test for the segregated free-list clamp: a span filed
    /// one size class too high must never be handed out to a larger
    /// request (the copy into it would clobber a neighbouring row).
    /// The clamp re-files the offender instead of returning it.
    #[test]
    fn misfiled_free_span_is_never_handed_out_short() {
        let mut st = PostingStore::new();
        let guard = st.insert(&[100, 200, 300, 400, 500, 600, 700, 800]);
        // Plant a 3-cap span at the arena tail, misfiled into class 4
        // (caps 16..32) — exactly the corruption the clamp defends
        // against. A 20-element insert falls through to class 4 and,
        // unclamped, would copy 20 positions into the 3-slot span,
        // overwriting whatever follows it.
        let offset = st.data.len();
        st.data.resize(offset + 3, 0);
        st.free_spans[4].push((offset, 3));
        let big: Vec<VertexId> = (0..20).collect();
        let r = st.insert(&big);
        assert_eq!(
            st.positions(r).as_ref(),
            big.as_slice(),
            "row must round-trip intact"
        );
        assert_eq!(
            st.positions(guard).as_ref(),
            &[100, 200, 300, 400, 500, 600, 700, 800]
        );
        // The misfiled span was re-filed into its true class (1) and is
        // still usable for a request it actually fits.
        let small = st.insert(&[7, 8]);
        assert_eq!(st.positions(small).as_ref(), &[7, 8]);
        assert_eq!(st.positions(r).as_ref(), big.as_slice());
    }

    /// Repeated difference/union shrink-grow traffic keeps every row
    /// intact while spans cycle through the free-list (the workload the
    /// ISSUE names: long dynamic-mining sessions recycling spans).
    #[test]
    fn shrink_grow_cycles_preserve_row_integrity() {
        let mut st = PostingStore::new();
        let universe: Vec<VertexId> = (0..64).collect();
        let rows: Vec<RowId> = (0..8)
            .map(|i| {
                let pos: Vec<VertexId> = (0..64).filter(|v| (v + i) % 3 != 0).collect();
                st.insert(&pos)
            })
            .collect();
        let mut expected: Vec<Vec<VertexId>> =
            rows.iter().map(|&r| st.positions(r).to_vec()).collect();
        for round in 0..40 {
            for (i, &r) in rows.iter().enumerate() {
                let cut: Vec<VertexId> = universe
                    .iter()
                    .copied()
                    .filter(|v| (*v as usize + round + i).is_multiple_of(4))
                    .collect();
                st.difference(r, &cut);
                difference_inplace(&mut expected[i], &cut);
                let grow: Vec<VertexId> = universe
                    .iter()
                    .copied()
                    .filter(|v| (*v as usize + round) % 5 == i % 5)
                    .collect();
                st.union_in_place(r, &grow);
                expected[i] = union(&expected[i], &grow);
            }
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(
                    st.positions(r).as_ref(),
                    expected[i].as_slice(),
                    "row {i} round {round}"
                );
            }
        }
        let live: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(st.live_len(), live);
    }

    /// White-box compaction test (the ROADMAP "PostingStore compaction"
    /// item): a shrink-heavy release/re-insert session fragments the
    /// arena; `compact()` must bring `arena_len` back to exactly
    /// `live_units` while every surviving row decodes identically and
    /// stays usable for further mutation.
    #[test]
    fn compact_repacks_arena_exactly() {
        let mut st = PostingStore::new();
        let universe: Vec<VertexId> = (0..96).collect();
        let rows: Vec<RowId> = (0..12)
            .map(|i| {
                let pos: Vec<VertexId> = universe.iter().copied().filter(|v| v % 12 >= i).collect();
                st.insert(&pos)
            })
            .collect();
        // Shrink-heavy traffic: carve most positions out of every row,
        // release a third of them, grow a few back — classic long-
        // session fragmentation (slack + free spans pile up).
        for (i, &r) in rows.iter().enumerate() {
            let cut: Vec<VertexId> = universe
                .iter()
                .copied()
                .filter(|&v| !(v as usize + i).is_multiple_of(3))
                .collect();
            st.difference(r, &cut);
            if i % 3 == 0 {
                st.release(r);
            } else if i % 3 == 1 {
                st.union_in_place(r, &[200, 201, 202, 203]);
            }
        }
        let survivors: Vec<RowId> = rows
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 3 != 0)
            .map(|(_, &r)| r)
            .collect();
        let expected: Vec<Vec<VertexId>> = survivors
            .iter()
            .map(|&r| st.positions(r).to_vec())
            .collect();

        assert!(
            st.arena_len() > st.live_units(),
            "fixture must actually fragment: arena {} vs live {}",
            st.arena_len(),
            st.live_units()
        );
        assert!(st.fragmentation() > 1.0);

        st.compact();
        assert_eq!(st.arena_len(), st.live_units(), "compaction must be exact");
        // Sparse-only fixture: in-use units and element counts coincide.
        assert_eq!(st.live_units(), st.live_len());
        assert_eq!(st.fragmentation(), 1.0);
        for (r, want) in survivors.iter().zip(&expected) {
            assert_eq!(
                st.positions(*r).as_ref(),
                want.as_slice(),
                "row must decode identically"
            );
        }
        // The store stays fully usable: grow a compacted row (forces a
        // relocation — spans now have zero slack) and insert a new one.
        let grown = union(&expected[0], &[500, 501]);
        st.union_in_place(survivors[0], &[500, 501]);
        assert_eq!(st.positions(survivors[0]).as_ref(), grown.as_slice());
        let fresh = st.insert(&[1, 2, 3]);
        assert_eq!(st.positions(fresh).as_ref(), &[1, 2, 3]);
        for (r, want) in survivors.iter().zip(&expected).skip(1) {
            assert_eq!(st.positions(*r).as_ref(), want.as_slice());
        }
    }

    #[test]
    fn fragmentation_of_empty_and_all_dead_stores() {
        let mut st = PostingStore::new();
        assert_eq!(st.fragmentation(), 1.0);
        let r = st.insert(&[1, 2]);
        assert_eq!(st.fragmentation(), 1.0);
        st.release(r);
        // All-dead arena still holding data: maximal pressure, so any
        // compaction threshold fires and reclaims it.
        assert_eq!(st.fragmentation(), f64::INFINITY);
        st.compact();
        assert_eq!(st.arena_len(), 0);
        assert_eq!(st.fragmentation(), 1.0);
    }

    #[test]
    fn store_reuses_released_spans() {
        let mut st = PostingStore::new();
        let a = st.insert(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let len_after_a = st.arena_len();
        st.release(a);
        assert_eq!(st.live_len(), 0);
        let b = st.insert(&[10, 20, 30]);
        // The new row fits inside the recycled span: no arena growth.
        assert_eq!(st.arena_len(), len_after_a);
        assert_eq!(st.positions(b).as_ref(), &[10, 20, 30]);
        // And the split remainder is still usable.
        let c = st.insert(&[7, 8, 9]);
        assert_eq!(st.arena_len(), len_after_a);
        assert_eq!(st.positions(c).as_ref(), &[7, 8, 9]);
    }

    // -- adaptive representation ---------------------------------------

    fn is_bitmap(st: &PostingStore, r: RowId) -> bool {
        matches!(st.slots[r.0 as usize].repr, Repr::Bitmap { .. })
    }

    /// A dense row: every id in `[lo, lo + n)`.
    fn dense(lo: VertexId, n: usize) -> Vec<VertexId> {
        (lo..lo + n as VertexId).collect()
    }

    #[test]
    fn dense_insert_goes_to_bitmap_and_roundtrips() {
        let mut st = PostingStore::new();
        let ids = dense(70, 512);
        let r = st.insert(&ids);
        assert!(is_bitmap(&st, r), "512 ids over a 968-id range are dense");
        assert_eq!(st.len(r), 512);
        assert_eq!(st.positions(r).as_ref(), ids.as_slice());
        let stats = st.repr_stats();
        assert_eq!((stats.sparse_rows, stats.bitmap_rows), (0, 1));
        // Direct insert is a layout choice, not a flip.
        assert_eq!((stats.flips_to_bitmap, stats.flips_to_sparse), (0, 0));
        // Sparse-only policy keeps the identical row sparse.
        let mut sp = PostingStore::with_policy(PostingPolicy::SparseOnly);
        let rs = sp.insert(&ids);
        assert!(!is_bitmap(&sp, rs));
        assert_eq!(sp.positions(rs).as_ref(), ids.as_slice());
    }

    /// Every kernel pairing must compute the same sets as the reference
    /// slice algebra. Rows are forced into each layout via the policy
    /// (sparse) and a dense insert (bitmap), then cross-compared.
    #[test]
    fn kernel_pairings_agree_with_reference() {
        let fixtures: Vec<(Vec<VertexId>, Vec<VertexId>)> = vec![
            (dense(0, 512), dense(256, 512)),
            (dense(0, 512), vec![]),
            (dense(0, 512), vec![511]),
            (dense(0, 512), vec![512]),
            (dense(0, 512), (0..200).map(|v| v * 7).collect()),
            (dense(1000, 300), dense(5000, 300)), // disjoint ranges
            (
                (0..256).map(|v| v * 2).collect(),
                (0..256).map(|v| v * 3).collect(),
            ),
        ];
        for (a, b) in fixtures {
            let want = intersect(&a, &b);
            let mut adaptive = PostingStore::new();
            let mut sparse = PostingStore::with_policy(PostingPolicy::SparseOnly);
            // Four layout pairings: (a-layout, b-layout) drawn from the
            // adaptive store (bitmap when dense) and the sparse store.
            let (aa, ab) = (adaptive.insert(&a), adaptive.insert(&b));
            let (sa, sb) = (sparse.insert(&a), sparse.insert(&b));
            assert_eq!(adaptive.intersect(aa, ab), want, "adaptive×adaptive");
            assert_eq!(adaptive.intersect_count(aa, ab), want.len());
            assert_eq!(sparse.intersect(sa, sb), want, "sparse×sparse");
            assert_eq!(adaptive.intersect_count_slice(aa, &b), want.len());
            let mut out = Vec::new();
            adaptive.intersect_into(aa, ab, &mut out);
            assert_eq!(out, want);
            // Mixed pairing inside one store: a bitmap row against a row
            // the adaptive policy kept sparse.
            let sparse_b: Vec<VertexId> = b.iter().copied().take(40).collect();
            let rb = adaptive.insert(&sparse_b);
            assert!(!is_bitmap(&adaptive, rb) || sparse_b.len() >= BITMAP_MIN_LEN);
            assert_eq!(
                adaptive.intersect(aa, rb),
                intersect(&a, &sparse_b),
                "mixed"
            );
            assert_eq!(
                adaptive.intersect_count(rb, aa),
                intersect_count(&a, &sparse_b)
            );
        }
    }

    /// `remove_marked` leaves a row, and the store around it, as
    /// `difference` with the marked ids does: sparse and bitmap rows,
    /// marks outside the row's range or past the mask's end, nothing
    /// marked, and a cut that drops a bitmap below the hysteresis floor.
    #[test]
    fn remove_marked_matches_difference() {
        let rows: Vec<Vec<VertexId>> = vec![
            dense(0, 512),
            dense(700, 600),
            (0..300).map(|v| v * 5).collect(),
            vec![3, 40, 41, 900],
        ];
        let cuts: Vec<Vec<VertexId>> = vec![
            vec![],
            vec![41],
            (0..2000).step_by(3).collect(),
            dense(0, 1400),
            vec![5000],
        ];
        for policy in [PostingPolicy::Adaptive, PostingPolicy::SparseOnly] {
            for row in &rows {
                for cut in &cuts {
                    let mut marked = vec![0u32; 1400usize.div_ceil(32)];
                    for &v in cut.iter().filter(|&&v| v < 1400) {
                        marked[v as usize / 32] |= 1 << (v % 32);
                    }
                    // Ids past the mask's end are unmarked.
                    let cut: Vec<VertexId> = cut.iter().copied().filter(|&v| v < 1400).collect();
                    let mut by_mask = PostingStore::with_policy(policy);
                    let mut by_list = PostingStore::with_policy(policy);
                    let (rm, rl) = (by_mask.insert(row), by_list.insert(row));
                    let removed = by_mask.remove_marked(rm, &marked);
                    let new_len = by_list.difference(rl, &cut);
                    assert_eq!(removed, row.len() - new_len);
                    assert_eq!(by_mask.positions(rm), by_list.positions(rl));
                    assert_eq!(is_bitmap(&by_mask, rm), is_bitmap(&by_list, rl));
                    assert_eq!(by_mask.repr_stats(), by_list.repr_stats());
                    assert_eq!(by_mask.arena_len(), by_list.arena_len());
                    assert_eq!(by_mask.live_units(), by_list.live_units());
                    assert_eq!(by_mask.live_len(), by_list.live_len());
                }
            }
        }
    }

    /// Union growth across the density threshold flips a sparse row to
    /// bitmap; carving it back down crosses the hysteresis floor and
    /// flips it back — and both layouts keep matching the reference.
    #[test]
    fn union_flip_in_and_difference_flip_out() {
        let mut st = PostingStore::new();
        let seed: Vec<VertexId> = (0..60).map(|v| v * 8).collect(); // sparse: 60 ids over 473
        let r = st.insert(&seed);
        assert!(!is_bitmap(&st, r));
        let mut reference = seed.clone();
        let fill = dense(0, 480);
        st.union_in_place(r, &fill);
        reference = union(&reference, &fill);
        assert!(is_bitmap(&st, r), "480-dense row must flip to bitmap");
        assert_eq!(st.repr_stats().flips_to_bitmap, 1);
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());
        assert_eq!(st.len(r), reference.len());

        // In-range union: pure bit sets, no reallocation.
        let arena_before = st.arena_len();
        let extra: Vec<VertexId> = (0..30).map(|v| v * 16 + 1).collect();
        st.union_in_place(r, &extra);
        reference = union(&reference, &extra);
        assert_eq!(st.arena_len(), arena_before);
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());

        // Shrink below len < words: hysteresis flips the row to sparse.
        let cut: Vec<VertexId> = reference.iter().copied().skip(10).collect();
        st.difference(r, &cut);
        reference.truncate(10);
        assert!(!is_bitmap(&st, r), "10 ids cannot stay a 16-word bitmap");
        assert_eq!(st.repr_stats().flips_to_sparse, 1);
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());
        assert_eq!(st.live_len(), reference.len());
        assert_eq!(st.live_units(), reference.len());
    }

    /// A bitmap union whose ids fall outside the covered range regrows
    /// the block (staying a bitmap while dense), and a union that
    /// scatters the row over a huge range demotes it back to sparse.
    #[test]
    fn bitmap_union_regrows_or_demotes_out_of_range() {
        let mut st = PostingStore::new();
        let seed = dense(512, 512);
        let r = st.insert(&seed);
        assert!(is_bitmap(&st, r));
        let mut reference = seed;
        // Regrow: extend past both ends, still dense overall.
        let beyond: Vec<VertexId> = (0..512).collect();
        st.union_in_place(r, &beyond);
        reference = union(&reference, &beyond);
        assert!(is_bitmap(&st, r), "1024 ids over 1024 range stay bitmap");
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());
        // Demote: one far-away id widens the range ~65k ids — the row is
        // no longer dense enough to keep the blocks.
        st.union_in_place(r, &[70_000]);
        reference.push(70_000);
        assert!(!is_bitmap(&st, r), "diluted row must decode to sparse");
        assert_eq!(st.repr_stats().flips_to_sparse, 1);
        assert_eq!(st.positions(r).as_ref(), reference.as_slice());
        assert_eq!(st.live_len(), reference.len());
    }

    /// Regression test for word-granular free-list bucketing (the
    /// bitmap twin of `misfiled_free_span_is_never_handed_out_short`):
    /// a recycled block misfiled into too high a class must never be
    /// handed to a larger bitmap allocation, and genuine recycled
    /// blocks are reused block-aligned without growing the arena.
    #[test]
    fn recycled_bitmap_blocks_are_never_handed_out_undersized() {
        let mut st = PostingStore::new();
        let guard = st.insert(&dense(0, 512)); // 16-word bitmap
                                               // Plant a 16-word block misfiled into class 6 (caps 64..128): a
                                               // 64-word request falls through to it and, unclamped, would
                                               // write 64 words over the 16-word span and its neighbours.
        let offset = st.data.len().next_multiple_of(BLOCK_WORDS);
        st.data.resize(offset + BLOCK_WORDS, 0);
        st.free_blocks[6].push((offset, BLOCK_WORDS));
        let big = dense(0, 2048); // needs 64 words
        let r = st.insert(&big);
        assert!(is_bitmap(&st, r));
        assert_eq!(st.positions(r).as_ref(), big.as_slice());
        assert_eq!(st.positions(guard).as_ref(), dense(0, 512).as_slice());
        // The misfiled block was re-filed into its true class and still
        // serves a request it fits: release + same-shape insert reuses
        // it (16 words) with no arena growth.
        let arena = st.arena_len();
        let small = st.insert(&dense(1024, 384));
        assert_eq!(st.arena_len(), arena, "16-word block must be recycled");
        assert_eq!(st.positions(small).as_ref(), dense(1024, 384).as_slice());
        // Release/reinsert cycle: blocks go back to free_blocks, stay
        // aligned, and are handed out again at full size.
        st.release(r);
        let again = st.insert(&dense(8192, 2048));
        assert_eq!(st.arena_len(), arena, "64-word block must be recycled");
        assert_eq!(st.slots[again.0 as usize].offset % BLOCK_WORDS, 0);
        assert_eq!(st.positions(again).as_ref(), dense(8192, 2048).as_slice());
        assert_eq!(st.positions(guard).as_ref(), dense(0, 512).as_slice());
    }

    /// Removal-traffic extension of the churn tests above (the windowed
    /// streaming workload: rows shrink to empty and are released, new
    /// rows arrive, layouts flip): sustained difference/release/insert
    /// cycles must keep every surviving row exact, hand no recycled
    /// span or bitmap block out undersized, and stay compactable to
    /// exactly `live_units` with bounded fragmentation afterwards.
    #[test]
    fn sustained_churn_keeps_freelist_sound_and_compactable() {
        let mut st = PostingStore::new();
        let mut state = 0x5EEDu64;
        let mut xs = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Live rows alongside their reference contents.
        let mut live: Vec<(RowId, Vec<VertexId>)> = Vec::new();
        for round in 0..60 {
            // Expire back: shrink a third of the rows by a random cut;
            // rows that empty out are released (the apply_delta row-
            // removal path), exercising both span and block free-lists.
            live.retain_mut(|(r, want)| {
                if xs() % 3 != 0 {
                    return true;
                }
                let cut: Vec<VertexId> = want.iter().copied().filter(|_| xs() % 4 != 0).collect();
                let new_len = st.difference(*r, &cut);
                difference_inplace(want, &cut);
                assert_eq!(new_len, want.len());
                if want.is_empty() {
                    st.release(*r);
                    return false;
                }
                true
            });
            // Insert front: a mix of dense (bitmap) and sparse rows.
            for i in 0..2 {
                let lo = (xs() % 4096) as VertexId;
                let pos: Vec<VertexId> = if xs() % 2 == 0 {
                    dense(lo, 128 + (xs() % 512) as usize)
                } else {
                    (0..(1 + xs() % 40))
                        .map(|k| lo + (k * (1 + i)) as VertexId)
                        .collect()
                };
                let mut pos = pos;
                pos.sort_unstable();
                pos.dedup();
                let r = st.insert(&pos);
                live.push((r, pos));
            }
            // Grow a surviving row back (union after shrink re-uses the
            // slack or relocates through the free-list).
            if let Some((r, want)) = live.first_mut() {
                let grow: Vec<VertexId> = (0..8).map(|k| (xs() % 8192) as VertexId + k).collect();
                let mut grow = grow;
                grow.sort_unstable();
                grow.dedup();
                st.union_in_place(*r, &grow);
                *want = union(want, &grow);
            }
            // Every row decodes exactly — a misfiled free span or an
            // undersized recycled block would clobber a neighbour here.
            for (r, want) in &live {
                assert_eq!(
                    st.positions(*r).as_ref(),
                    want.as_slice(),
                    "row corrupted in round {round}"
                );
            }
        }
        let live_elems: usize = live.iter().map(|(_, w)| w.len()).sum();
        assert_eq!(st.live_len(), live_elems);
        assert!(st.fragmentation() >= 1.0);
        st.compact();
        assert_eq!(st.arena_len(), st.live_units(), "compaction must be exact");
        assert_eq!(st.fragmentation(), 1.0);
        for (r, want) in &live {
            assert_eq!(st.positions(*r).as_ref(), want.as_slice());
        }
        // Post-compaction the store still takes fresh churn.
        let fresh = st.insert(&dense(0, 300));
        assert_eq!(st.positions(fresh).as_ref(), dense(0, 300).as_slice());
    }

    /// Compaction with mixed layouts: bitmap blocks pack first (so they
    /// stay block-aligned), sparse rows follow exactly, both keep their
    /// representation and contents, and the arena ends at live_units.
    #[test]
    fn compact_preserves_mixed_layouts() {
        let mut st = PostingStore::new();
        let b1 = st.insert(&dense(0, 512));
        let s1 = st.insert(&[5, 100, 900]);
        let b2 = st.insert(&dense(4096, 600));
        let dead = st.insert(&dense(100_000, 256));
        st.release(dead);
        st.difference(b1, &dense(0, 100));
        assert!(st.arena_len() > st.live_units(), "fixture must fragment");
        let want_b1 = st.positions(b1).into_owned();
        let want_b2 = st.positions(b2).into_owned();
        st.compact();
        assert_eq!(st.arena_len(), st.live_units());
        assert_eq!(st.fragmentation(), 1.0);
        assert!(is_bitmap(&st, b1) && is_bitmap(&st, b2));
        assert!(!is_bitmap(&st, s1));
        assert_eq!(st.slots[b1.0 as usize].offset % BLOCK_WORDS, 0);
        assert_eq!(st.slots[b2.0 as usize].offset % BLOCK_WORDS, 0);
        assert_eq!(st.positions(b1).as_ref(), want_b1.as_slice());
        assert_eq!(st.positions(b2).as_ref(), want_b2.as_slice());
        assert_eq!(st.positions(s1).as_ref(), &[5, 100, 900]);
        // Still fully usable post-compaction.
        st.union_in_place(b1, &[100_000]);
        let fresh = st.insert(&dense(0, 512));
        assert_eq!(st.positions(fresh).as_ref(), dense(0, 512).as_slice());
    }
}
