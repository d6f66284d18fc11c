//! Data-oriented storage for the engine core: a struct-of-arrays packet
//! store, an arena for per-packet routing-option lists, and dense
//! bitsets over buffers and channels.
//!
//! The hot phases of the routing cycle each touch a narrow slice of
//! per-packet state — the fill pass reads option buffers and `moved_at`,
//! the link pass reads buffer occupancy, the read pass reads
//! `next_class`/`dst` — so the packet slab is stored as parallel arrays
//! ([`PacketStore`]) instead of an array of structs: a phase streams
//! through only the fields it uses. Option lists, which the old engine
//! kept as one `Vec` allocation per packet slot, live in a shared
//! [`OptionArena`] with exact-fit segment recycling, and buffer/channel
//! occupancy is mirrored in [`BitSet`]s so the link pass can test a
//! whole channel's "staged and far side empty" condition with two word
//! fetches.

/// One possible move of a queued packet: an output buffer (or
/// [`crate::layout::NONE`] for an internal stutter), the central-queue
/// class on arrival, and the routing state after the hop.
pub(crate) struct MoveOpt<M> {
    pub(crate) buf: u32,
    pub(crate) to_class: u8,
    pub(crate) next: M,
    /// Degraded-mode escape hop (see [`crate::fault`]): `next` is a
    /// placeholder; the receiving node restarts the routing state.
    pub(crate) escape: bool,
}

/// Struct-of-arrays slab of in-flight packets, indexed by recycled slot
/// id. Slot lifecycle matches the old `Vec<Packet>`: [`PacketStore::insert`]
/// pops the free list or grows every column, [`PacketStore::release`]
/// frees the slot and returns its option segment to the arena (uids are
/// never recycled, slots are).
pub(crate) struct PacketStore<M> {
    pub(crate) src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    /// Run-unique id in injection order; this is the `pkt` handed to the
    /// [`fadr_metrics::Recorder`] hooks.
    pub(crate) uid: Vec<u64>,
    /// Link hops taken so far (for the minimality check).
    pub(crate) hops: Vec<u16>,
    pub(crate) inject_cycle: Vec<u64>,
    /// Cycle the packet entered its current central queue; FIFO priority
    /// *across* a node's queues is by this timestamp (§ 7.1's "taking
    /// messages from the queues in FIFO order").
    pub(crate) enqueued_at: Vec<u64>,
    /// Cycle of the packet's last move (enforces one move per cycle).
    pub(crate) moved_at: Vec<u64>,
    /// Central-queue class of the current residence (valid while queued).
    pub(crate) class: Vec<u8>,
    /// Central-queue class on arrival (valid while staged).
    pub(crate) next_class: Vec<u8>,
    /// The packet's current hop is a degraded-mode escape move (see
    /// [`crate::fault`]).
    pub(crate) escape: Vec<bool>,
    /// Routing state; updated to the post-hop state when staged.
    pub(crate) msg: Vec<M>,
    /// Start of the packet's option segment in the [`OptionArena`].
    pub(crate) opt_start: Vec<u32>,
    /// Length of the packet's option segment (0 = none cached).
    pub(crate) opt_len: Vec<u32>,
    /// Fill positions the packet's link options target at its node
    /// (bit `pos` ⇔ an option stages onto the node's `pos`-th output
    /// buffer; positions ≥ 64 are left out, as only layouts passing
    /// `fast_fill` read the mask). Derived from the option segment.
    pub(crate) wants: Vec<u64>,
    /// Number of internal (stutter) options in the segment.
    pub(crate) stutters: Vec<u8>,
    /// Recycled slot ids.
    pub(crate) free: Vec<u32>,
}

/// Initial field values for [`PacketStore::insert`] (everything except
/// the option segment, which starts empty).
pub(crate) struct PacketInit<M> {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) uid: u64,
    pub(crate) hops: u16,
    pub(crate) inject_cycle: u64,
    pub(crate) enqueued_at: u64,
    pub(crate) moved_at: u64,
    pub(crate) class: u8,
    pub(crate) next_class: u8,
    pub(crate) escape: bool,
    pub(crate) msg: M,
}

impl<M> PacketStore<M> {
    pub(crate) fn new() -> Self {
        Self {
            src: Vec::new(),
            dst: Vec::new(),
            uid: Vec::new(),
            hops: Vec::new(),
            inject_cycle: Vec::new(),
            enqueued_at: Vec::new(),
            moved_at: Vec::new(),
            class: Vec::new(),
            next_class: Vec::new(),
            escape: Vec::new(),
            msg: Vec::new(),
            opt_start: Vec::new(),
            opt_len: Vec::new(),
            wants: Vec::new(),
            stutters: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of slots (live + free).
    pub(crate) fn len(&self) -> usize {
        self.src.len()
    }

    /// Place a packet, recycling a free slot if available.
    pub(crate) fn insert(&mut self, init: PacketInit<M>) -> u32 {
        if let Some(i) = self.free.pop() {
            let p = i as usize;
            self.src[p] = init.src;
            self.dst[p] = init.dst;
            self.uid[p] = init.uid;
            self.hops[p] = init.hops;
            self.inject_cycle[p] = init.inject_cycle;
            self.enqueued_at[p] = init.enqueued_at;
            self.moved_at[p] = init.moved_at;
            self.class[p] = init.class;
            self.next_class[p] = init.next_class;
            self.escape[p] = init.escape;
            self.msg[p] = init.msg;
            debug_assert_eq!(self.opt_len[p], 0, "freed slot kept an option segment");
            i
        } else {
            self.src.push(init.src);
            self.dst.push(init.dst);
            self.uid.push(init.uid);
            self.hops.push(init.hops);
            self.inject_cycle.push(init.inject_cycle);
            self.enqueued_at.push(init.enqueued_at);
            self.moved_at.push(init.moved_at);
            self.class.push(init.class);
            self.next_class.push(init.next_class);
            self.escape.push(init.escape);
            self.msg.push(init.msg);
            self.opt_start.push(0);
            self.opt_len.push(0);
            self.wants.push(0);
            self.stutters.push(0);
            (self.src.len() - 1) as u32
        }
    }

    /// Free slot `p`: return its option segment to `arena` and push the
    /// slot onto the free list.
    pub(crate) fn release(&mut self, p: u32, arena: &mut OptionArena<M>) {
        let pi = p as usize;
        arena.release(self.opt_start[pi], self.opt_len[pi]);
        self.opt_len[pi] = 0;
        self.free.push(p);
    }

    /// Replace slot `p`'s cached option segment, recycling the old one,
    /// and derive its fill summary (`wants`, `stutters`) from the new
    /// options; `buf_out_pos` is the layout's buffer → fill position
    /// map. This is the only writer of the segment, so the summary can
    /// never go stale.
    pub(crate) fn set_options(
        &mut self,
        p: u32,
        arena: &mut OptionArena<M>,
        opts: &mut Vec<MoveOpt<M>>,
        buf_out_pos: &[u32],
    ) {
        let pi = p as usize;
        let mut wants = 0u64;
        let mut stutters = 0u8;
        for o in opts.iter() {
            if o.buf == crate::layout::NONE {
                stutters = stutters.saturating_add(1);
            } else {
                let pos = buf_out_pos[o.buf as usize];
                if pos < 64 {
                    wants |= 1u64 << pos;
                }
            }
        }
        self.wants[pi] = wants;
        self.stutters[pi] = stutters;
        arena.release(self.opt_start[pi], self.opt_len[pi]);
        let (start, len) = arena.store(opts);
        self.opt_start[pi] = start;
        self.opt_len[pi] = len;
    }

    /// The option segment of slot `p` as an arena index range.
    #[inline]
    pub(crate) fn opt_range(&self, p: u32) -> std::ops::Range<usize> {
        let pi = p as usize;
        let s = self.opt_start[pi] as usize;
        s..s + self.opt_len[pi] as usize
    }

    pub(crate) fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.uid.clear();
        self.hops.clear();
        self.inject_cycle.clear();
        self.enqueued_at.clear();
        self.moved_at.clear();
        self.class.clear();
        self.next_class.clear();
        self.escape.clear();
        self.msg.clear();
        self.opt_start.clear();
        self.opt_len.clear();
        self.wants.clear();
        self.stutters.clear();
        self.free.clear();
    }
}

/// Shared struct-of-arrays storage for every packet's cached option
/// list. Segments are allocated contiguously and recycled through
/// exact-length free lists: a packet that recomputes an option set of
/// the same size gets its old segment back, so steady-state simulation
/// performs no allocator traffic at all (the old design re-grew a
/// per-slot `Vec` instead).
pub(crate) struct OptionArena<M> {
    pub(crate) buf: Vec<u32>,
    pub(crate) to_class: Vec<u8>,
    pub(crate) escape: Vec<bool>,
    pub(crate) next: Vec<M>,
    /// `free[len]` holds start offsets of recycled segments of exactly
    /// `len` entries. Option-set sizes are bounded by the routing
    /// function's fan-out (a handful), so the outer Vec stays tiny.
    free: Vec<Vec<u32>>,
}

impl<M> OptionArena<M> {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::new(),
            to_class: Vec::new(),
            escape: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Move `opts` into a segment (recycled exact-fit or freshly grown)
    /// and return `(start, len)`. `opts` is drained, keeping its
    /// capacity for reuse as scratch.
    pub(crate) fn store(&mut self, opts: &mut Vec<MoveOpt<M>>) -> (u32, u32) {
        let len = opts.len();
        if len == 0 {
            return (0, 0);
        }
        if let Some(start) = self.free.get_mut(len).and_then(Vec::pop) {
            let s = start as usize;
            for (i, opt) in opts.drain(..).enumerate() {
                self.buf[s + i] = opt.buf;
                self.to_class[s + i] = opt.to_class;
                self.escape[s + i] = opt.escape;
                self.next[s + i] = opt.next;
            }
            (start, len as u32)
        } else {
            let start = self.buf.len() as u32;
            for opt in opts.drain(..) {
                self.buf.push(opt.buf);
                self.to_class.push(opt.to_class);
                self.escape.push(opt.escape);
                self.next.push(opt.next);
            }
            (start, len as u32)
        }
    }

    /// Return a segment to the free lists (no-op for `len == 0`). The
    /// segment's contents stay resident until overwritten by a reuse.
    pub(crate) fn release(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let l = len as usize;
        if self.free.len() <= l {
            self.free.resize_with(l + 1, Vec::new);
        }
        self.free[l].push(start);
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.to_class.clear();
        self.escape.clear();
        self.next.clear();
        for f in &mut self.free {
            f.clear();
        }
    }
}

/// Fixed-capacity dense bitset. The engine keeps three: output-buffer
/// occupancy, input-buffer occupancy, and channels-with-staged-traffic;
/// [`BitSet::extract`] is the link pass's two-word channel probe.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    #[cfg(test)]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The `len <= 64` bits starting at bit `start`, as the low bits of
    /// the returned word (at most two word fetches).
    #[inline]
    pub(crate) fn extract(&self, start: usize, len: usize) -> u64 {
        debug_assert!(len <= 64);
        let w = start / 64;
        let off = start % 64;
        let mut v = self.words[w] >> off;
        if off != 0 && w + 1 < self.words.len() {
            v |= self.words[w + 1] << (64 - off);
        }
        if len == 64 {
            v
        } else {
            v & ((1u64 << len) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_clear_get() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        b.clear(64);
        assert!(!b.get(64));
        b.clear_all();
        assert!(!b.get(0) && !b.get(129));
    }

    #[test]
    fn bitset_extract_spans_word_boundaries() {
        let mut b = BitSet::new(200);
        for i in [60usize, 61, 64, 70, 127, 128] {
            b.set(i);
        }
        // Bits 60..124: set positions 60,61,64,70 → offsets 0,1,4,10.
        assert_eq!(b.extract(60, 64), 1 | 2 | (1 << 4) | (1 << 10));
        // Bits 126..130: set positions 127,128 → offsets 1,2.
        assert_eq!(b.extract(126, 4), 0b110);
        // Aligned full word.
        assert_eq!(b.extract(64, 64), 1 | (1 << 6) | (1 << 63));
        // Zero-length probe.
        assert_eq!(b.extract(10, 0), 0);
    }

    #[test]
    fn arena_recycles_exact_fit_segments() {
        let mut a: OptionArena<u32> = OptionArena::new();
        let mut scratch = vec![
            MoveOpt {
                buf: 1,
                to_class: 0,
                next: 10,
                escape: false,
            },
            MoveOpt {
                buf: 2,
                to_class: 1,
                next: 20,
                escape: false,
            },
        ];
        let (s0, l0) = a.store(&mut scratch);
        assert_eq!((s0, l0), (0, 2));
        assert!(scratch.is_empty());
        a.release(s0, l0);
        // Same-size segment reuses the freed storage…
        scratch.push(MoveOpt {
            buf: 7,
            to_class: 0,
            next: 70,
            escape: true,
        });
        scratch.push(MoveOpt {
            buf: 8,
            to_class: 1,
            next: 80,
            escape: false,
        });
        let (s1, l1) = a.store(&mut scratch);
        assert_eq!((s1, l1), (0, 2));
        assert_eq!(&a.buf[0..2], &[7, 8]);
        assert_eq!(&a.next[0..2], &[70, 80]);
        assert!(a.escape[0]);
        // …while a different size grows fresh storage.
        scratch.push(MoveOpt {
            buf: 9,
            to_class: 0,
            next: 90,
            escape: false,
        });
        let (s2, l2) = a.store(&mut scratch);
        assert_eq!((s2, l2), (2, 1));
    }

    #[test]
    fn packet_store_recycles_slots() {
        let mut a: OptionArena<u8> = OptionArena::new();
        let mut s: PacketStore<u8> = PacketStore::new();
        let init = |uid| PacketInit {
            src: 0,
            dst: 1,
            uid,
            hops: 0,
            inject_cycle: 0,
            enqueued_at: 0,
            moved_at: u64::MAX,
            class: 0,
            next_class: 0,
            escape: false,
            msg: 0u8,
        };
        let p0 = s.insert(init(0));
        let p1 = s.insert(init(1));
        assert_eq!((p0, p1), (0, 1));
        let mut opts = vec![MoveOpt {
            buf: 3,
            to_class: 0,
            next: 0u8,
            escape: false,
        }];
        s.set_options(p0, &mut a, &mut opts, &[0, 0, 0, 5]);
        assert_eq!(s.opt_range(p0), 0..1);
        assert_eq!((s.wants[0], s.stutters[0]), (1 << 5, 0));
        s.release(p0, &mut a);
        // The freed slot (and its arena segment) are recycled.
        let p2 = s.insert(init(2));
        assert_eq!(p2, 0);
        assert_eq!(s.uid[0], 2);
        assert_eq!(s.opt_range(p2), 0..0);
        assert_eq!(s.len(), 2);
    }
}
