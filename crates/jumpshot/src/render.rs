//! SVG timeline rendering.
//!
//! Coordinates match Jumpshot's: the X axis is global time in seconds,
//! the Y axis is process rank (0 = `PI_MAIN` at the top). Each drawable
//! is rendered the way Jumpshot renders it:
//!
//! * a **state** wide enough on screen becomes a filled rectangle whose
//!   height shrinks with nesting level (inner rectangles inside outer
//!   ones); its popup text becomes an SVG `<title>` tooltip;
//! * a state **too narrow to see** (below `MIN_STATE_PX`) instead
//!   contributes to its pixel bucket's *preview stripe* — an outlined
//!   rectangle filled with horizontal colour bands whose heights are
//!   proportional to each category's share of that interval, exactly the
//!   zoomed-out representation the paper describes under Fig. 1;
//! * a **solo event** becomes a small circle ("bubble");
//! * a **message arrow** becomes a line from the sender's timeline to
//!   the receiver's, with the envelope in its tooltip.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use slog2::{CategoryId, Drawable, Slog2File, TimeWindow, TimelineId};

use crate::viewport::Viewport;

/// Height of one timeline row in pixels.
const ROW_HEIGHT: f64 = 28.0;
/// States narrower than this many pixels go into preview stripes.
const MIN_STATE_PX: f64 = 1.5;
/// Preview bucket width in pixels.
const BUCKET_PX: f64 = 4.0;
/// Canvas background colour.
const BACKGROUND: &str = "#101018";
/// Left gutter for timeline labels, pixels.
const LABEL_GUTTER: f64 = 80.0;
/// Bottom strip for the time axis, pixels.
const AXIS_HEIGHT: f64 = 26.0;

/// A critical-path overlay: the on-timeline segments and cross-timeline
/// hops of a causal critical path (as computed by the `analysis`
/// crate), drawn highlighted over the normal canvas. Every backend of
/// the [`Renderer`](crate::Renderer) trait honours it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathOverlay {
    /// On-timeline path segments `(timeline, t0, t1)`.
    pub segments: Vec<(TimelineId, f64, f64)>,
    /// Cross-timeline hops `(from, to, send_time, recv_time)` — the
    /// message arrows the path rides between timelines.
    pub hops: Vec<(TimelineId, TimelineId, f64, f64)>,
    /// Dim everything that is not on the path.
    pub dim_others: bool,
}

impl PathOverlay {
    /// Seconds of path segments on `tl` clipped to `[t0, t1]`.
    pub fn seconds_on(&self, tl: TimelineId, t0: f64, t1: f64) -> f64 {
        self.segments
            .iter()
            .filter(|(s_tl, _, _)| *s_tl == tl)
            .map(|&(_, s0, s1)| (s1.min(t1) - s0.max(t0)).max(0.0))
            .sum()
    }

    /// Does any segment on `tl` overlap `[t0, t1]` (closed interval)?
    pub fn on_path(&self, tl: TimelineId, t0: f64, t1: f64) -> bool {
        self.segments
            .iter()
            .any(|&(s_tl, s0, s1)| s_tl == tl && s0 <= t1 && s1 >= t0)
    }
}

/// Rendering options shared by every [`Renderer`](crate::Renderer)
/// backend. Construct with [`Default`] and refine with the `with_*`
/// builder methods.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Time window to render; `None` = the file's full range.
    pub window: Option<TimeWindow>,
    /// Output width: pixels for the SVG/HTML/histogram backends,
    /// characters for the ascii backend.
    pub width: u32,
    /// Cap on the ascii backend's arrow list (0 = unlimited).
    pub max_arrows: usize,
    /// If set, only these category indices are drawn (legend visibility
    /// toggles).
    pub visible_categories: Option<HashSet<CategoryId>>,
    /// Critical-path overlay: highlight these segments and hops, and
    /// (optionally) dim everything off the path.
    pub overlay: Option<PathOverlay>,
    /// Two-lane comparison layout: draw a bright divider above this
    /// timeline row, splitting the canvas into a "before" lane (rows
    /// `0..split`) and an "after" lane (rows `split..`). Used by the
    /// trace-diff side-by-side render; `None` = single-lane as usual.
    pub lane_split: Option<u32>,
    /// Per-row annotations appended after the row content (ascii) or
    /// the per-row totals (histogram) — the diff backends use these for
    /// delta columns. SVG/HTML ignore them.
    pub row_notes: Vec<(TimelineId, String)>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            window: None,
            width: 1280,
            max_arrows: 20,
            visible_categories: None,
            overlay: None,
            lane_split: None,
            row_notes: Vec::new(),
        }
    }
}

impl RenderOptions {
    /// Render only this time window instead of the full file range.
    pub fn with_window(mut self, w: TimeWindow) -> Self {
        self.window = Some(w);
        self
    }

    /// Set the output width (pixels, or characters for ascii).
    pub fn with_width(mut self, width: u32) -> Self {
        self.width = width;
        self
    }

    /// Cap the ascii arrow list.
    pub fn with_max_arrows(mut self, cap: usize) -> Self {
        self.max_arrows = cap;
        self
    }

    /// Restrict drawing to these category indices.
    pub fn with_visible_categories(mut self, cats: HashSet<CategoryId>) -> Self {
        self.visible_categories = Some(cats);
        self
    }

    /// Highlight a critical path over the canvas.
    pub fn with_overlay(mut self, overlay: PathOverlay) -> Self {
        self.overlay = Some(overlay);
        self
    }

    /// Split the canvas into before/after lanes at this timeline row.
    pub fn with_lane_split(mut self, split: u32) -> Self {
        self.lane_split = Some(split);
        self
    }

    /// Attach per-row annotations (delta columns).
    pub fn with_row_notes(mut self, notes: Vec<(TimelineId, String)>) -> Self {
        self.row_notes = notes;
        self
    }

    /// The note attached to `tl`, if any.
    pub(crate) fn row_note(&self, tl: TimelineId) -> Option<&str> {
        self.row_notes
            .iter()
            .find(|(n_tl, _)| *n_tl == tl)
            .map(|(_, s)| s.as_str())
    }
}

pub(crate) fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

struct Layout {
    rows: usize,
    canvas_w: f64,
}

impl Layout {
    fn row_top(&self, timeline: TimelineId) -> f64 {
        timeline.as_u32() as f64 * ROW_HEIGHT
    }

    fn row_mid(&self, timeline: TimelineId) -> f64 {
        self.row_top(timeline) + ROW_HEIGHT / 2.0
    }

    fn total_height(&self) -> f64 {
        self.rows as f64 * ROW_HEIGHT + AXIS_HEIGHT
    }

    fn total_width(&self) -> f64 {
        LABEL_GUTTER + self.canvas_w
    }
}

pub(crate) fn svg_string(file: &Slog2File, vp: &Viewport, opts: &RenderOptions) -> String {
    let lay = Layout {
        rows: file.timelines.len(),
        canvas_w: vp.width_px as f64,
    };

    let visible = |cat: CategoryId| -> bool {
        opts.visible_categories
            .as_ref()
            .is_none_or(|set| set.contains(&cat))
    };

    let mut svg = String::with_capacity(16 * 1024);
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"monospace\" font-size=\"11\">",
        w = lay.total_width(),
        h = lay.total_height()
    );
    let _ = writeln!(
        svg,
        "<rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"{}\"/>",
        lay.total_width(),
        lay.total_height(),
        esc(BACKGROUND)
    );

    // Row separators and labels.
    for (r, name) in file.timelines.iter().enumerate() {
        let y = lay.row_top(TimelineId(r as u32));
        let _ = writeln!(
            svg,
            "<line x1=\"{g}\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" stroke=\"#333\" stroke-width=\"0.5\"/>",
            g = LABEL_GUTTER,
            y = y,
            x2 = lay.total_width()
        );
        let _ = writeln!(
            svg,
            "<text x=\"4\" y=\"{}\" fill=\"#ddd\" class=\"tl-label\">{}</text>",
            lay.row_mid(TimelineId(r as u32)) + 4.0,
            esc(name)
        );
    }

    // Lane divider for two-lane (before/after) comparison layouts.
    if let Some(split) = opts.lane_split {
        if (1..lay.rows as u32).contains(&split) {
            let y = lay.row_top(TimelineId(split));
            let _ = writeln!(
                svg,
                "<line x1=\"0\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" stroke=\"#ff9800\" \
                 stroke-width=\"1.5\" stroke-dasharray=\"8 4\" class=\"lane-split\"/>",
                x2 = lay.total_width()
            );
        }
    }

    // Partition drawables of the window.
    let hits = file.tree.query(TimeWindow::new(vp.t0, vp.t1));
    let mut wide_states = Vec::new();
    // (timeline, bucket) -> per-category clipped coverage
    let mut buckets: BTreeMap<(TimelineId, u32), BTreeMap<CategoryId, f64>> = BTreeMap::new();
    let mut events = Vec::new();
    let mut arrows = Vec::new();

    for d in hits {
        if !visible(d.category()) {
            continue;
        }
        match d {
            Drawable::State(s) => {
                let px = vp.px_of_span(s.end - s.start);
                if px >= MIN_STATE_PX {
                    wide_states.push(s);
                } else {
                    let clipped0 = s.start.max(vp.t0);
                    let clipped1 = s.end.min(vp.t1);
                    let x = vp.x_of((clipped0 + clipped1) / 2.0);
                    let b = (x / BUCKET_PX).floor().max(0.0) as u32;
                    *buckets
                        .entry((s.timeline, b))
                        .or_default()
                        .entry(s.category)
                        .or_insert(0.0) += clipped1 - clipped0;
                }
            }
            Drawable::Event(e) => events.push(e),
            Drawable::Arrow(a) => arrows.push(a),
        }
    }

    // Deterministic output order.
    wide_states.sort_by(|a, b| {
        a.timeline
            .cmp(&b.timeline)
            .then(a.start.total_cmp(&b.start))
            .then(a.nest_level.cmp(&b.nest_level))
    });
    events.sort_by(|a, b| a.timeline.cmp(&b.timeline).then(a.time.total_cmp(&b.time)));
    arrows.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(a.from_timeline.cmp(&b.from_timeline))
            .then(a.to_timeline.cmp(&b.to_timeline))
    });

    // Preview stripes first (behind individual rectangles).
    for ((timeline, b), cats) in &buckets {
        let x = LABEL_GUTTER + *b as f64 * BUCKET_PX;
        let y = lay.row_top(*timeline) + 2.0;
        let h = ROW_HEIGHT - 4.0;
        let total: f64 = cats.values().sum();
        if total <= 0.0 {
            continue;
        }
        let _ = writeln!(
            svg,
            "<g class=\"preview\"><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{BUCKET_PX:.2}\" height=\"{h:.2}\" \
             fill=\"none\" stroke=\"#888\" stroke-width=\"0.5\"/>"
        );
        let mut yoff = y;
        for (cat, cov) in cats {
            let share = cov / total;
            let sh = share * h;
            let color = file
                .categories
                .get(cat.as_usize())
                .map(|c| c.color.to_hex())
                .unwrap_or_else(|| "#000000".into());
            let _ = writeln!(
                svg,
                "<rect x=\"{x:.2}\" y=\"{yoff:.2}\" width=\"{BUCKET_PX:.2}\" height=\"{sh:.2}\" fill=\"{color}\" class=\"stripe\"/>"
            );
            yoff += sh;
        }
        svg.push_str("</g>\n");
    }

    // Individual state rectangles.
    for s in wide_states {
        let x0 = LABEL_GUTTER + vp.x_of(s.start.max(vp.t0)).max(0.0);
        let x1 = LABEL_GUTTER + vp.x_of(s.end.min(vp.t1)).min(lay.canvas_w);
        let shrink = (s.nest_level as f64 * 4.0).min(ROW_HEIGHT / 2.0 - 2.0);
        let y = lay.row_top(s.timeline) + 2.0 + shrink;
        let h = (ROW_HEIGHT - 4.0 - 2.0 * shrink).max(2.0);
        let color = file
            .categories
            .get(s.category.as_usize())
            .map(|c| c.color.to_hex())
            .unwrap_or_else(|| "#000000".into());
        let name = file
            .categories
            .get(s.category.as_usize())
            .map(|c| c.name.as_str())
            .unwrap_or("?");
        let tooltip = format!(
            "{} [{:.6}s, {:.6}s] dur {:.6}s\n{}",
            name,
            s.start,
            s.end,
            s.end - s.start,
            s.text
        );
        let _ = writeln!(
            svg,
            "<rect x=\"{x0:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"{color}\" \
             stroke=\"#000\" stroke-width=\"0.3\" class=\"state\"><title>{t}</title></rect>",
            w = (x1 - x0).max(0.5),
            t = esc(&tooltip)
        );
    }

    // Arrows (drawn over states, like Jumpshot's white arrows).
    for a in arrows {
        let x0 = LABEL_GUTTER + vp.x_of(a.start);
        let x1 = LABEL_GUTTER + vp.x_of(a.end);
        let y0 = lay.row_mid(a.from_timeline);
        let y1 = lay.row_mid(a.to_timeline);
        let color = file
            .categories
            .get(a.category.as_usize())
            .map(|c| c.color.to_hex())
            .unwrap_or_else(|| "#ffffff".into());
        let tooltip = format!(
            "message {}->{} tag {} size {}B\nstart {:.6}s end {:.6}s dur {:.6}s",
            a.from_timeline,
            a.to_timeline,
            a.tag,
            a.size,
            a.start,
            a.end,
            a.end - a.start
        );
        let _ = writeln!(
            svg,
            "<line x1=\"{x0:.2}\" y1=\"{y0:.2}\" x2=\"{x1:.2}\" y2=\"{y1:.2}\" stroke=\"{color}\" \
             stroke-width=\"1\" class=\"arrow\"><title>{t}</title></line>",
            t = esc(&tooltip)
        );
    }

    // Event bubbles on top.
    for e in events {
        let x = LABEL_GUTTER + vp.x_of(e.time);
        let y = lay.row_mid(e.timeline);
        let color = file
            .categories
            .get(e.category.as_usize())
            .map(|c| c.color.to_hex())
            .unwrap_or_else(|| "#ffff00".into());
        let name = file
            .categories
            .get(e.category.as_usize())
            .map(|c| c.name.as_str())
            .unwrap_or("?");
        let tooltip = format!("{} @ {:.6}s\n{}", name, e.time, e.text);
        let _ = writeln!(
            svg,
            "<circle cx=\"{x:.2}\" cy=\"{y:.2}\" r=\"2.5\" fill=\"{color}\" class=\"bubble\"><title>{t}</title></circle>",
            t = esc(&tooltip)
        );
    }

    // Critical-path overlay: dim everything, then trace the path.
    if let Some(ov) = &opts.overlay {
        if ov.dim_others {
            let _ = writeln!(
                svg,
                "<rect x=\"{g}\" y=\"0\" width=\"{w:.2}\" height=\"{h:.2}\" \
                 fill=\"#000\" opacity=\"0.55\" class=\"dim\"/>",
                g = LABEL_GUTTER,
                w = lay.canvas_w,
                h = lay.rows as f64 * ROW_HEIGHT
            );
        }
        for &(tl, s0, s1) in &ov.segments {
            let (c0, c1) = (s0.max(vp.t0), s1.min(vp.t1));
            if c1 < c0 {
                continue;
            }
            let x0 = LABEL_GUTTER + vp.x_of(c0).max(0.0);
            let x1 = LABEL_GUTTER + vp.x_of(c1).min(lay.canvas_w);
            let y = lay.row_mid(tl);
            let _ = writeln!(
                svg,
                "<line x1=\"{x0:.2}\" y1=\"{y:.2}\" x2=\"{x1:.2}\" y2=\"{y:.2}\" \
                 stroke=\"#ff4081\" stroke-width=\"4\" stroke-linecap=\"round\" \
                 opacity=\"0.9\" class=\"critical-path\"><title>critical path: {tl} \
                 [{s0:.6}s, {s1:.6}s]</title></line>",
                tl = tl
            );
        }
        for &(from, to, t_send, t_recv) in &ov.hops {
            if t_recv < vp.t0 || t_send > vp.t1 {
                continue;
            }
            let x0 = LABEL_GUTTER + vp.x_of(t_send);
            let x1 = LABEL_GUTTER + vp.x_of(t_recv);
            let y0 = lay.row_mid(from);
            let y1 = lay.row_mid(to);
            let _ = writeln!(
                svg,
                "<line x1=\"{x0:.2}\" y1=\"{y0:.2}\" x2=\"{x1:.2}\" y2=\"{y1:.2}\" \
                 stroke=\"#ff4081\" stroke-width=\"2\" stroke-dasharray=\"5 3\" \
                 class=\"critical-hop\"><title>critical hop {from}->{to} \
                 [{t_send:.6}s, {t_recv:.6}s]</title></line>",
                from = from,
                to = to
            );
        }
    }

    // Time axis.
    let axis_y = lay.rows as f64 * ROW_HEIGHT;
    let _ = writeln!(
        svg,
        "<line x1=\"{g}\" y1=\"{axis_y}\" x2=\"{x2}\" y2=\"{axis_y}\" stroke=\"#aaa\" stroke-width=\"1\"/>",
        g = LABEL_GUTTER,
        x2 = lay.total_width()
    );
    for i in 0..=8 {
        let t = vp.t0 + vp.span() * i as f64 / 8.0;
        let x = LABEL_GUTTER + vp.x_of(t);
        let _ = writeln!(
            svg,
            "<line x1=\"{x:.2}\" y1=\"{axis_y}\" x2=\"{x:.2}\" y2=\"{y2}\" stroke=\"#aaa\" stroke-width=\"1\"/>\
             <text x=\"{x:.2}\" y=\"{ty}\" fill=\"#ccc\" text-anchor=\"middle\" class=\"tick\">{t:.4}s</text>",
            y2 = axis_y + 4.0,
            ty = axis_y + 16.0
        );
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpelog::Color;
    use slog2::{ArrowDrawable, EventDrawable, StateDrawable};
    use slog2::{Category, CategoryKind, FrameTree};

    fn test_file(drawables: Vec<Drawable>) -> Slog2File {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "PI_Read".into(),
                color: Color::RED,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "arrival".into(),
                color: Color::YELLOW,
                kind: CategoryKind::Event,
            },
            Category {
                index: CategoryId(2),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            },
        ];
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for d in &drawables {
            t0 = t0.min(d.start());
            t1 = t1.max(d.end());
        }
        if !t0.is_finite() {
            t0 = 0.0;
            t1 = 1.0;
        }
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories,
            range: TimeWindow::new(t0, t1),
            warnings: vec![],
            tree: FrameTree::build(drawables, t0, t1, 16, 8),
        }
    }

    fn state(tl: u32, start: f64, end: f64) -> Drawable {
        Drawable::State(StateDrawable {
            category: CategoryId(0),
            timeline: TimelineId(tl),
            start,
            end,
            nest_level: 0,
            text: "Line: 42".into(),
        })
    }

    #[test]
    fn wide_state_renders_as_rect_with_tooltip() {
        let f = test_file(vec![state(0, 0.0, 1.0)]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &RenderOptions::default());
        assert!(svg.contains("class=\"state\""));
        assert!(svg.contains("#ff0000"));
        assert!(svg.contains("Line: 42"));
        assert!(svg.contains("PI_MAIN"));
    }

    #[test]
    fn narrow_states_become_preview_stripes() {
        // 1000 states of 1 µs each across 1 s: far below MIN_STATE_PX at
        // 800 px, so nothing should render individually.
        let ds: Vec<_> = (0..1000)
            .map(|i| state(0, i as f64 * 1e-3, i as f64 * 1e-3 + 1e-6))
            .collect();
        let f = test_file(ds);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &RenderOptions::default());
        assert!(!svg.contains("class=\"state\""));
        assert!(svg.contains("class=\"preview\""));
        assert!(svg.contains("class=\"stripe\""));
    }

    #[test]
    fn zooming_in_turns_stripes_into_rects() {
        let ds: Vec<_> = (0..1000)
            .map(|i| state(0, i as f64 * 1e-3, i as f64 * 1e-3 + 9e-4))
            .collect();
        let f = test_file(ds);
        // Zoomed to 5 ms: each 0.9 ms state is ~144 px wide.
        let svg = svg_string(
            &f,
            &Viewport::new(0.0, 0.005, 800),
            &RenderOptions::default(),
        );
        assert!(svg.contains("class=\"state\""));
    }

    #[test]
    fn events_render_as_bubbles() {
        let f = test_file(vec![Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(1),
            time: 0.5,
            text: "Chan: C3".into(),
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("class=\"bubble\""));
        assert!(svg.contains("Chan: C3"));
        assert!(svg.contains("#ffff00"));
    }

    #[test]
    fn arrows_connect_timelines() {
        let f = test_file(vec![Drawable::Arrow(ArrowDrawable {
            category: CategoryId(2),
            from_timeline: TimelineId(0),
            to_timeline: TimelineId(1),
            start: 0.2,
            end: 0.4,
            tag: 9,
            size: 128,
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("class=\"arrow\""));
        assert!(svg.contains("tag 9"));
        assert!(svg.contains("size 128B"));
    }

    #[test]
    fn visibility_toggle_hides_category() {
        let f = test_file(vec![
            state(0, 0.0, 1.0),
            Drawable::Event(EventDrawable {
                category: CategoryId(1),
                timeline: TimelineId(0),
                time: 0.5,
                text: String::new(),
            }),
        ]);
        let opts = RenderOptions {
            visible_categories: Some([CategoryId(1)].into_iter().collect()),
            ..Default::default()
        };
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
        assert!(!svg.contains("class=\"state\""));
        assert!(svg.contains("class=\"bubble\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let ds: Vec<_> = (0..100)
            .map(|i| state(i % 2, i as f64 * 0.01, i as f64 * 0.01 + 0.008))
            .collect();
        let f = test_file(ds);
        let vp = Viewport::new(0.0, 1.0, 640);
        let a = svg_string(&f, &vp, &RenderOptions::default());
        let b = svg_string(&f, &vp, &RenderOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn off_window_drawables_are_not_rendered() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(0, 5.0, 6.0)]);
        let svg = svg_string(&f, &Viewport::new(4.5, 6.5, 400), &RenderOptions::default());
        // Only the second state is in the window.
        assert_eq!(svg.matches("class=\"state\"").count(), 1);
    }

    #[test]
    fn xml_specials_are_escaped() {
        let f = test_file(vec![Drawable::Event(EventDrawable {
            category: CategoryId(1),
            timeline: TimelineId(0),
            time: 0.5,
            text: "a<b & \"c\"".into(),
        })]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot;"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn empty_file_renders_frame_only() {
        let f = test_file(vec![]);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(!svg.contains("class=\"state\""));
    }

    #[test]
    fn overlay_highlights_path_and_dims_rest() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(1, 0.2, 0.8)]);
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 0.4), (TimelineId(1), 0.5, 0.8)],
            hops: vec![(TimelineId(0), TimelineId(1), 0.4, 0.5)],
            dim_others: true,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 800), &opts);
        assert_eq!(svg.matches("class=\"critical-path\"").count(), 2);
        assert_eq!(svg.matches("class=\"critical-hop\"").count(), 1);
        assert!(svg.contains("class=\"dim\""));
    }

    #[test]
    fn overlay_clips_to_viewport() {
        let f = test_file(vec![state(0, 0.0, 10.0)]);
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 1.0), (TimelineId(0), 8.0, 9.0)],
            hops: vec![],
            dim_others: false,
        };
        let opts = RenderOptions::default().with_overlay(ov);
        // Window [2, 5] excludes both segments entirely? No: [0,1] ends
        // before 2 and [8,9] starts after 5 — nothing drawn, no dim.
        let svg = svg_string(&f, &Viewport::new(2.0, 5.0, 400), &opts);
        assert!(!svg.contains("class=\"critical-path\""));
        assert!(!svg.contains("class=\"dim\""));
    }

    #[test]
    fn lane_split_draws_divider() {
        let f = test_file(vec![state(0, 0.0, 1.0), state(1, 0.2, 0.8)]);
        let opts = RenderOptions::default().with_lane_split(1);
        let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
        assert_eq!(svg.matches("class=\"lane-split\"").count(), 1, "{svg}");
        // A split at row 0 or past the last row is meaningless: no line.
        for bad in [0, 2, 9] {
            let opts = RenderOptions::default().with_lane_split(bad);
            let svg = svg_string(&f, &Viewport::new(0.0, 1.0, 400), &opts);
            assert!(!svg.contains("lane-split"), "split {bad}: {svg}");
        }
    }

    #[test]
    fn overlay_helpers_measure_path_seconds() {
        let ov = PathOverlay {
            segments: vec![(TimelineId(1), 1.0, 3.0), (TimelineId(1), 5.0, 6.0)],
            hops: vec![],
            dim_others: false,
        };
        assert!((ov.seconds_on(TimelineId(1), 0.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((ov.seconds_on(TimelineId(1), 2.0, 5.5) - 1.5).abs() < 1e-12);
        assert_eq!(ov.seconds_on(TimelineId(0), 0.0, 10.0), 0.0);
        assert!(ov.on_path(TimelineId(1), 3.0, 4.0)); // touching counts
        assert!(!ov.on_path(TimelineId(1), 3.5, 4.5));
    }
}
