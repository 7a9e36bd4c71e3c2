//! Columnar drawable storage for the converter's hot path and for
//! every frame-tree build.
//!
//! The scan/merge/tree phases used to shuffle `Vec<Drawable>` around —
//! an 80-byte enum per row plus a heap `String` each, so every
//! partition step moved wide rows and every text carried an allocation.
//! [`DrawableColumns`] stores the same rows struct-of-arrays with one
//! shared text arena: pushes are plain array appends, the frame-tree
//! build permutes `u32` indices instead of rows, and texts are
//! materialized into owned [`Drawable`]s only when a row reaches its
//! final tree node (or is encoded straight to bytes on the out-of-core
//! path, which never materializes at all).
//!
//! Row semantics mirror [`Drawable`] exactly — in particular an arrow's
//! `(t0, t1)` are the *raw* send/receive timestamps (possibly
//! backward), while [`DrawableColumns::start`]/[`DrawableColumns::end`]
//! normalize them the way `Drawable::start`/`end` do.

use mpelog::wire::Writer;

use crate::convert::EqualKey;
use crate::drawable::{ArrowDrawable, Drawable, EventDrawable, StateDrawable};
use crate::id::{CategoryId, TimelineId};

/// Row kind tags — same values as the wire encoding's kind byte.
pub(crate) const KIND_STATE: u8 = 0;
pub(crate) const KIND_EVENT: u8 = 1;
pub(crate) const KIND_ARROW: u8 = 2;

/// Struct-of-arrays drawable store. See the module docs.
#[derive(Debug, Default, Clone)]
pub(crate) struct DrawableColumns {
    kinds: Vec<u8>,
    cats: Vec<u32>,
    /// Timeline (state/event) or from-timeline (arrow).
    tls: Vec<u32>,
    /// Nest level (state), 0 (event), to-timeline (arrow).
    aux1: Vec<u32>,
    /// Tag (arrow), else 0.
    aux2: Vec<u32>,
    /// Size (arrow), else 0.
    aux3: Vec<u32>,
    /// Raw start: state start, event time, send timestamp.
    t0s: Vec<f64>,
    /// Raw end: state end, event time, receive timestamp.
    t1s: Vec<f64>,
    text_off: Vec<u64>,
    text_len: Vec<u32>,
    texts: String,
    n_states: u64,
    n_events: u64,
    n_arrows: u64,
}

impl DrawableColumns {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn n_states(&self) -> u64 {
        self.n_states
    }

    pub(crate) fn n_events(&self) -> u64 {
        self.n_events
    }

    pub(crate) fn n_arrows(&self) -> u64 {
        self.n_arrows
    }

    fn push_text(&mut self, text: &str) {
        self.text_off.push(self.texts.len() as u64);
        self.text_len.push(text.len() as u32);
        self.texts.push_str(text);
    }

    pub(crate) fn push_state(
        &mut self,
        cat: CategoryId,
        tl: TimelineId,
        start: f64,
        end: f64,
        nest: u32,
        text: &str,
    ) {
        self.kinds.push(KIND_STATE);
        self.cats.push(cat.0);
        self.tls.push(tl.0);
        self.aux1.push(nest);
        self.aux2.push(0);
        self.aux3.push(0);
        self.t0s.push(start);
        self.t1s.push(end);
        self.push_text(text);
        self.n_states += 1;
    }

    pub(crate) fn push_event(&mut self, cat: CategoryId, tl: TimelineId, time: f64, text: &str) {
        self.kinds.push(KIND_EVENT);
        self.cats.push(cat.0);
        self.tls.push(tl.0);
        self.aux1.push(0);
        self.aux2.push(0);
        self.aux3.push(0);
        self.t0s.push(time);
        self.t1s.push(time);
        self.push_text(text);
        self.n_events += 1;
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_arrow(
        &mut self,
        cat: CategoryId,
        from: TimelineId,
        to: TimelineId,
        start: f64,
        end: f64,
        tag: u32,
        size: u32,
    ) {
        self.kinds.push(KIND_ARROW);
        self.cats.push(cat.0);
        self.tls.push(from.0);
        self.aux1.push(to.0);
        self.aux2.push(tag);
        self.aux3.push(size);
        self.t0s.push(start);
        self.t1s.push(end);
        self.push_text("");
        self.n_arrows += 1;
    }

    /// Append one row of a [`Drawable`].
    pub(crate) fn push(&mut self, d: &Drawable) {
        match d {
            Drawable::State(s) => self.push_state(
                s.category,
                s.timeline,
                s.start,
                s.end,
                s.nest_level,
                &s.text,
            ),
            Drawable::Event(e) => self.push_event(e.category, e.timeline, e.time, &e.text),
            Drawable::Arrow(a) => self.push_arrow(
                a.category,
                a.from_timeline,
                a.to_timeline,
                a.start,
                a.end,
                a.tag,
                a.size,
            ),
        }
    }

    pub(crate) fn category(&self, i: usize) -> CategoryId {
        CategoryId(self.cats[i])
    }

    /// Earliest time — arrows normalized like [`Drawable::start`].
    pub(crate) fn start(&self, i: usize) -> f64 {
        if self.kinds[i] == KIND_ARROW {
            self.t0s[i].min(self.t1s[i])
        } else {
            self.t0s[i]
        }
    }

    /// Latest time — arrows normalized like [`Drawable::end`].
    pub(crate) fn end(&self, i: usize) -> f64 {
        if self.kinds[i] == KIND_ARROW {
            self.t1s[i].max(self.t0s[i])
        } else {
            self.t1s[i]
        }
    }

    pub(crate) fn duration(&self, i: usize) -> f64 {
        self.end(i) - self.start(i)
    }

    pub(crate) fn text(&self, i: usize) -> &str {
        let off = self.text_off[i] as usize;
        &self.texts[off..off + self.text_len[i] as usize]
    }

    /// The Equal-Drawables grouping key for row `i`: category,
    /// placement (timeline, and an arrow's receiving timeline) and the
    /// bit-exact interval.
    pub(crate) fn equal_key(&self, i: usize) -> EqualKey {
        match self.kinds[i] {
            KIND_ARROW => (
                self.cats[i],
                self.tls[i],
                self.aux1[i],
                self.t0s[i].to_bits(),
                self.t1s[i].to_bits(),
            ),
            _ => (
                self.cats[i],
                self.tls[i],
                0,
                self.t0s[i].to_bits(),
                self.t1s[i].to_bits(),
            ),
        }
    }

    /// Materialize row `i` as an owned [`Drawable`].
    pub(crate) fn to_drawable(&self, i: usize) -> Drawable {
        match self.kinds[i] {
            KIND_STATE => Drawable::State(StateDrawable {
                category: CategoryId(self.cats[i]),
                timeline: TimelineId(self.tls[i]),
                start: self.t0s[i],
                end: self.t1s[i],
                nest_level: self.aux1[i],
                text: self.text(i).to_string(),
            }),
            KIND_EVENT => Drawable::Event(EventDrawable {
                category: CategoryId(self.cats[i]),
                timeline: TimelineId(self.tls[i]),
                time: self.t0s[i],
                text: self.text(i).to_string(),
            }),
            _ => Drawable::Arrow(ArrowDrawable {
                category: CategoryId(self.cats[i]),
                from_timeline: TimelineId(self.tls[i]),
                to_timeline: TimelineId(self.aux1[i]),
                start: self.t0s[i],
                end: self.t1s[i],
                tag: self.aux2[i],
                size: self.aux3[i],
            }),
        }
    }

    /// Encode row `i` — byte-for-byte what `Drawable::encode` writes.
    pub(crate) fn encode(&self, i: usize, w: &mut Writer) {
        let kind = self.kinds[i];
        w.put_u8(kind);
        w.put_u32(self.cats[i]);
        w.put_u32(self.tls[i]);
        match kind {
            KIND_STATE => {
                w.put_f64(self.t0s[i]);
                w.put_f64(self.t1s[i]);
                w.put_u32(self.aux1[i]);
                w.put_str(self.text(i));
            }
            KIND_EVENT => {
                w.put_f64(self.t0s[i]);
                w.put_str(self.text(i));
            }
            _ => {
                w.put_u32(self.aux1[i]);
                w.put_f64(self.t0s[i]);
                w.put_f64(self.t1s[i]);
                w.put_u32(self.aux2[i]);
                w.put_u32(self.aux3[i]);
            }
        }
    }

    /// Append all rows of `other`, rebasing its text offsets.
    pub(crate) fn append(&mut self, other: &DrawableColumns) {
        let base = self.texts.len() as u64;
        self.kinds.extend_from_slice(&other.kinds);
        self.cats.extend_from_slice(&other.cats);
        self.tls.extend_from_slice(&other.tls);
        self.aux1.extend_from_slice(&other.aux1);
        self.aux2.extend_from_slice(&other.aux2);
        self.aux3.extend_from_slice(&other.aux3);
        self.t0s.extend_from_slice(&other.t0s);
        self.t1s.extend_from_slice(&other.t1s);
        self.text_off
            .extend(other.text_off.iter().map(|o| o + base));
        self.text_len.extend_from_slice(&other.text_len);
        self.texts.push_str(&other.texts);
        self.n_states += other.n_states;
        self.n_events += other.n_events;
        self.n_arrows += other.n_arrows;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A state with text and a nest level, an event with text, and a
    /// backward arrow.
    pub(crate) fn sample() -> Vec<Drawable> {
        vec![
            Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(1),
                start: 1.0,
                end: 2.5,
                nest_level: 3,
                text: "Line: 7".into(),
            }),
            Drawable::Event(EventDrawable {
                category: CategoryId(4),
                timeline: TimelineId(0),
                time: 1.25,
                text: "Chan: C0".into(),
            }),
            // Backward arrow: raw order preserved, accessors normalize.
            Drawable::Arrow(ArrowDrawable {
                category: CategoryId(5),
                from_timeline: TimelineId(0),
                to_timeline: TimelineId(1),
                start: 3.0,
                end: 2.0,
                tag: 9,
                size: 64,
            }),
        ]
    }

    #[test]
    fn roundtrip_and_accessors_match_enum() {
        let ds = sample();
        let mut cols = DrawableColumns::new();
        for d in &ds {
            cols.push(d);
        }
        assert_eq!(cols.len(), ds.len());
        assert_eq!(
            (cols.n_states(), cols.n_events(), cols.n_arrows()),
            (1, 1, 1)
        );
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(&cols.to_drawable(i), d);
            assert_eq!(cols.start(i), d.start());
            assert_eq!(cols.end(i), d.end());
            assert_eq!(cols.duration(i), d.duration());
            assert_eq!(cols.category(i), d.category());
            let mut a = Writer::new();
            let mut b = Writer::new();
            cols.encode(i, &mut a);
            d.encode(&mut b);
            assert_eq!(a.into_bytes(), b.into_bytes());
        }
    }

    #[test]
    fn append_rebases_texts() {
        let ds = sample();
        let mut a = DrawableColumns::new();
        a.push(&ds[0]);
        let mut b = DrawableColumns::new();
        b.push(&ds[1]);
        b.push(&ds[2]);
        let mut merged = DrawableColumns::new();
        merged.append(&a);
        merged.append(&b);
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(&merged.to_drawable(i), d);
        }
    }
}
