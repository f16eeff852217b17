//! Shared candidate-set storage across sibling tasks.
//!
//! A partially materialized candidate set `S_j(i)` is computed once at
//! level `i` and reused by the entire subtree below (paper Section 2.1:
//! "the partial result can be reused by the entire subtree without
//! recomputing"). Sibling tasks created by branch-level parallelism share
//! it through *frames* chained toward the root: one frame per task that
//! spawned children, listing the `(target, set)` pairs that task emitted.
//!
//! Both PE models walk their trees depth first, so a frame's whole subtree
//! finishes before any older frame's does. [`Frames`] exploits that: set
//! buffers, emissions and frames are three stacks, a frame is released
//! when the PE's work stack shrinks back to where it stood when the frame
//! was retained, and released set buffers are recycled by later tasks —
//! nothing is reference counted and steady-state simulation allocates
//! nothing.

// lint: hot-path(alloc)

use std::ops::Range;

use fingers_setops::Elem;

/// Index of a pooled candidate-set buffer.
pub type SetId = u32;
/// Index of a retained frame; tasks carry their parent's.
pub type FrameId = u32;
/// The parent of level-0 tasks.
pub const NO_FRAME: FrameId = FrameId::MAX;

#[derive(Debug)]
struct Frame {
    parent: FrameId,
    /// This frame's emissions within `Frames::emitted`.
    emitted: Range<usize>,
    /// The pool slots the owning task filled.
    sets: Range<usize>,
    /// The PE's work-stack length before the owning task pushed children.
    stack_base: usize,
    bytes: u64,
}

/// The set pool, the emission list and the frame stack of one PE.
///
/// Emissions and sets above the newest frame belong to the task currently
/// executing; [`retain`](Self::retain) turns them into a frame, otherwise
/// the next task's [`discard`](Self::discard) recycles them.
#[derive(Debug, Default)]
pub struct Frames {
    /// Set buffers; the first `live_sets` are in use, the rest recycled.
    sets: Vec<Vec<Elem>>,
    live_sets: usize,
    /// `(target level, set)` in emission order, frame after frame.
    emitted: Vec<(usize, SetId)>,
    frames: Vec<Frame>,
}

impl Frames {
    /// Where the current task's emissions and sets start: just past the
    /// newest frame's.
    fn open(&self) -> (usize, usize) {
        self.frames
            .last()
            .map_or((0, 0), |f| (f.emitted.end, f.sets.end))
    }

    /// Takes a recycled, cleared buffer out of the pool for the current
    /// task to fill; hand it back with [`store`](Self::store).
    pub fn new_set(&mut self) -> (SetId, Vec<Elem>) {
        if self.live_sets == self.sets.len() {
            // lint: allow-alloc(pool growth: one empty Vec per pool slot ever used, recycled afterwards)
            self.sets.push(Vec::new());
        }
        let mut buf = std::mem::take(&mut self.sets[self.live_sets]);
        buf.clear();
        self.live_sets += 1;
        ((self.live_sets - 1) as SetId, buf)
    }

    /// Puts a filled buffer back under its id.
    pub fn store(&mut self, id: SetId, buf: Vec<Elem>) {
        self.sets[id as usize] = buf;
    }

    /// The contents of a live set.
    pub fn set(&self, id: SetId) -> &[Elem] {
        &self.sets[id as usize]
    }

    /// Records that the current task materialized `S_target` as `set`.
    pub fn emit(&mut self, target: usize, set: SetId) {
        self.emitted.push((target, set));
    }

    /// The most recent materialization of `S_target` visible to the
    /// current task: its own emissions first, then the frames from
    /// `parent` toward the root — newest emission first within each, since
    /// one level may refine a target several times (`InitAnti` then
    /// `Apply`) and only the last is `S_target`.
    pub fn lookup(&self, parent: FrameId, target: usize) -> Option<SetId> {
        let newest_in = |range: Range<usize>| {
            self.emitted[range]
                .iter()
                .rev()
                .find(|&&(t, _)| t == target)
                .map(|&(_, set)| set)
        };
        let mut found = newest_in(self.open().0..self.emitted.len());
        let mut frame = parent;
        while found.is_none() && frame != NO_FRAME {
            let f = &self.frames[frame as usize];
            found = newest_in(f.emitted.start..f.emitted.end);
            frame = f.parent;
        }
        found
    }

    /// Keeps the current task's emissions as a new frame on top of
    /// `parent`, to live until the PE's work stack is `stack_base` long
    /// again.
    pub fn retain(&mut self, parent: FrameId, stack_base: usize) -> FrameId {
        let (first_emitted, first_set) = self.open();
        // One entry per emission, so a set two targets share is charged
        // twice — the private-cache occupancy model's accounting.
        let bytes = self.emitted[first_emitted..]
            .iter()
            .map(|&(_, set)| std::mem::size_of_val(self.set(set)) as u64)
            .sum();
        self.frames.push(Frame {
            parent,
            emitted: first_emitted..self.emitted.len(),
            sets: first_set..self.live_sets,
            stack_base,
            bytes,
        });
        (self.frames.len() - 1) as FrameId
    }

    /// Bytes of the sets listed in `frame` alone (for the private-cache
    /// occupancy model).
    pub fn bytes(&self, frame: FrameId) -> u64 {
        self.frames[frame as usize].bytes
    }

    /// Recycles the emissions and sets above the newest frame: those of a
    /// task that spawned nothing. The interpreter calls this as each task
    /// starts.
    pub fn discard(&mut self) {
        let (first_emitted, first_set) = self.open();
        self.emitted.truncate(first_emitted);
        self.live_sets = first_set;
    }

    /// Releases every frame whose subtree is finished — retained when the
    /// work stack was at least `stack_len` long — and returns their bytes.
    pub fn release(&mut self, stack_len: usize) -> u64 {
        let mut bytes = 0;
        while let Some(f) = self.frames.last() {
            if f.stack_base < stack_len {
                break;
            }
            bytes += f.bytes;
            self.emitted.truncate(f.emitted.start);
            self.live_sets = f.sets.start;
            self.frames.pop();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(frames: &mut Frames, target: usize, elems: &[Elem]) -> SetId {
        let (id, mut buf) = frames.new_set();
        buf.extend_from_slice(elems);
        frames.store(id, buf);
        frames.emit(target, id);
        id
    }

    #[test]
    fn lookup_prefers_nearest_frame() {
        let mut f = Frames::default();
        emit(&mut f, 2, &[1, 2, 3]);
        emit(&mut f, 3, &[9]);
        let root = f.retain(NO_FRAME, 0);
        emit(&mut f, 2, &[7]);
        let child = f.retain(root, 1);
        let s2 = f.lookup(child, 2).expect("S2");
        assert_eq!(f.set(s2), &[7]);
        let s3 = f.lookup(child, 3).expect("S3");
        assert_eq!(f.set(s3), &[9]);
        assert!(f.lookup(child, 4).is_none());
        // A task under `root` only does not see `child`'s refinement.
        let s2 = f.lookup(root, 2).expect("S2");
        assert_eq!(f.set(s2), &[1, 2, 3]);
    }

    /// A level that emits twice to one target (`InitAnti` then `Apply`)
    /// leaves the *later*, more refined set as `S_target` — for the task
    /// itself and for every descendant reading it through the frame.
    #[test]
    fn two_emissions_for_one_target_resolve_to_the_later() {
        let mut f = Frames::default();
        emit(&mut f, 3, &[1, 2, 3, 4]);
        let refined = emit(&mut f, 3, &[2, 4]);
        assert_eq!(f.lookup(NO_FRAME, 3), Some(refined));
        let frame = f.retain(NO_FRAME, 0);
        assert_eq!(f.lookup(frame, 3), Some(refined));
        emit(&mut f, 4, &[5]);
        assert_eq!(f.lookup(frame, 3), Some(refined));
    }

    #[test]
    fn bytes_count_only_own_emissions_once_each() {
        let mut f = Frames::default();
        let shared = emit(&mut f, 2, &[1, 2, 3]);
        f.emit(3, shared);
        let root = f.retain(NO_FRAME, 0);
        emit(&mut f, 3, &[1]);
        let child = f.retain(root, 1);
        assert_eq!((f.bytes(root), f.bytes(child)), (24, 4));
    }

    #[test]
    fn released_and_discarded_buffers_are_recycled() {
        let mut f = Frames::default();
        emit(&mut f, 1, &[1, 2, 3]);
        let root = f.retain(NO_FRAME, 0);
        emit(&mut f, 2, &[4, 5]);
        f.discard();
        assert!(f.lookup(root, 2).is_none());
        let again = emit(&mut f, 2, &[6]);
        assert_eq!(again, 1, "the discarded slot is handed out again");
        f.retain(root, 3);
        // The stack shrinking to 3 ends the child's subtree only.
        assert_eq!(f.release(3), 4);
        assert!(f.lookup(root, 1).is_some());
        assert_eq!(f.release(0), 12);
        let (id, buf) = f.new_set();
        assert_eq!(id, 0);
        assert!(buf.is_empty() && buf.capacity() >= 3);
    }
}
