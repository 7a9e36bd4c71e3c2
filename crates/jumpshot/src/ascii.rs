//! Plain-text timeline rendering.
//!
//! The course this tool serves is taught over SSH as often as not; a
//! text view of the same timelines makes the visual log usable in a
//! terminal, a CI log, or a unit-test assertion. One row per timeline;
//! each column is a time bucket showing the dominant state's letter
//! (from the legend name), `*` for solo events, with message arrows
//! listed below the chart.
//!
//! ```text
//! PI_MAIN |CCCCWWRRCC......|
//! P1      |CC..RRRRWWCC....|
//! arrows: 0->1 @0.000113s, 1->0 @0.000151s
//! ```

use std::fmt::Write as _;

use slog2::{Drawable, Slog2File, TimeWindow, TimelineId};

use crate::render::RenderOptions;
use crate::viewport::Viewport;

// The cell-painting loop indexes a clamped column range of a 2-D grid;
// a slice iterator would need the same bounds arithmetic, less clearly.
#[allow(clippy::needless_range_loop)]
pub(crate) fn ascii_string(file: &Slog2File, w: TimeWindow, opts: &RenderOptions) -> String {
    let (t0, t1) = (w.t0, w.t1);
    let max_arrows = opts.max_arrows;
    let width = (opts.width as usize).max(8);
    let vp = Viewport::new(t0, t1.max(t0 + f64::MIN_POSITIVE), width as u32);
    let ntl = file.timelines.len();
    let label_w = file
        .timelines
        .iter()
        .map(String::len)
        .max()
        .unwrap_or(2)
        .min(16);

    // cells[tl][col] = (best coverage, letter)
    let mut cells = vec![vec![(0.0f64, ' '); width]; ntl];
    let mut arrows: Vec<(f64, TimelineId, TimelineId)> = Vec::new();

    for d in file.tree.query(w) {
        match d {
            Drawable::State(s) => {
                if s.timeline.as_usize() >= ntl {
                    continue;
                }
                let letter = file
                    .categories
                    .get(s.category.as_usize())
                    .and_then(|c| {
                        // Use the distinguishing letter of the Pilot name:
                        // "PI_Read" -> 'R', "Compute" -> 'C'.
                        c.name.strip_prefix("PI_").unwrap_or(&c.name).chars().next()
                    })
                    .unwrap_or('?');
                let c0 = vp.x_of(s.start.max(t0)).floor().max(0.0) as usize;
                let c1 = (vp.x_of(s.end.min(t1)).ceil() as usize).min(width);
                for col in c0..c1.max(c0 + 1).min(width) {
                    // Dominant = innermost (higher nest wins ties via
                    // coverage-per-cell comparison with small bias).
                    let cov = (s.end - s.start) / (1.0 + s.nest_level as f64 * 0.0)
                        + s.nest_level as f64 * 1e9;
                    let cell = &mut cells[s.timeline.as_usize()][col];
                    if cov >= cell.0 {
                        *cell = (cov, letter);
                    }
                }
            }
            Drawable::Event(e) => {
                if e.timeline.as_usize() >= ntl {
                    continue;
                }
                let col = vp.x_of(e.time).floor().max(0.0) as usize;
                if col < width {
                    cells[e.timeline.as_usize()][col] = (f64::INFINITY, '*');
                }
            }
            Drawable::Arrow(a) => arrows.push((a.start, a.from_timeline, a.to_timeline)),
        }
    }

    let overlay = opts.overlay.as_ref();
    let col_span = (t1 - t0) / width as f64;
    let mut out = String::new();
    for (tl, name) in file.timelines.iter().enumerate() {
        // Two-lane layouts get a ruled separator above the "after" lane.
        if opts.lane_split == Some(tl as u32) && tl > 0 {
            let _ = writeln!(out, "{:=<rule$}", "", rule = label_w + 2 + width + 1);
        }
        let short: String = name.chars().take(label_w).collect();
        let _ = write!(out, "{short:<label_w$} |");
        for (col, &(_, ch)) in cells[tl].iter().enumerate() {
            let mut ch = if ch == ' ' { '.' } else { ch };
            // With a dimming overlay, off-path cells drop to lowercase
            // so the critical path stays the loudest thing on screen.
            if let Some(ov) = overlay {
                let c0 = t0 + col as f64 * col_span;
                if ov.dim_others && !ov.on_path(TimelineId(tl as u32), c0, c0 + col_span) {
                    ch = ch.to_ascii_lowercase();
                }
            }
            out.push(ch);
        }
        out.push('|');
        if let Some(note) = opts.row_note(TimelineId(tl as u32)) {
            let _ = write!(out, " {note}");
        }
        out.push('\n');
    }
    if let Some(ov) = overlay {
        let _ = writeln!(
            out,
            "critical path: {} segment(s), {} hop(s)",
            ov.segments.len(),
            ov.hops.len()
        );
        for &(tl, s0, s1) in &ov.segments {
            let name = file.timeline_name(tl).unwrap_or("?");
            let _ = writeln!(out, "  {name} [{s0:.6}s, {s1:.6}s]");
        }
        for &(from, to, t_send, t_recv) in &ov.hops {
            let _ = writeln!(out, "  hop {from}->{to} @{t_send:.6}s..{t_recv:.6}s");
        }
    }
    if !arrows.is_empty() {
        arrows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let shown = if max_arrows > 0 {
            arrows.len().min(max_arrows)
        } else {
            arrows.len()
        };
        let list: Vec<String> = arrows[..shown]
            .iter()
            .map(|(t, from, to)| format!("{from}->{to} @{t:.6}s"))
            .collect();
        let _ = write!(out, "arrows: {}", list.join(", "));
        if shown < arrows.len() {
            let _ = write!(out, " (+{} more)", arrows.len() - shown);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::PathOverlay;
    use mpelog::Color;
    use slog2::{
        ArrowDrawable, Category, CategoryId, CategoryKind, EventDrawable, FrameTree, StateDrawable,
    };

    fn file() -> Slog2File {
        let categories = vec![
            Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(1),
                name: "PI_Read".into(),
                color: Color::RED,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(2),
                name: "msg arrival".into(),
                color: Color::YELLOW,
                kind: CategoryKind::Event,
            },
            Category {
                index: CategoryId(3),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            },
        ];
        let ds = vec![
            Drawable::State(StateDrawable {
                category: CategoryId(0),
                timeline: TimelineId(0),
                start: 0.0,
                end: 8.0,
                nest_level: 0,
                text: String::new(),
            }),
            Drawable::State(StateDrawable {
                category: CategoryId(1),
                timeline: TimelineId(1),
                start: 2.0,
                end: 6.0,
                nest_level: 0,
                text: String::new(),
            }),
            Drawable::Event(EventDrawable {
                category: CategoryId(2),
                timeline: TimelineId(1),
                time: 5.0,
                text: String::new(),
            }),
            Drawable::Arrow(ArrowDrawable {
                category: CategoryId(3),
                from_timeline: TimelineId(0),
                to_timeline: TimelineId(1),
                start: 4.0,
                end: 5.0,
                tag: 7,
                size: 8,
            }),
        ];
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into()],
            categories,
            range: TimeWindow::new(0.0, 8.0),
            warnings: vec![],
            tree: FrameTree::build(ds, 0.0, 8.0, 8, 4),
        }
    }

    #[test]
    fn ascii_shows_states_events_and_arrows() {
        let txt = ascii_string(
            &file(),
            TimeWindow::new(0.0, 8.0),
            &RenderOptions::default().with_width(16),
        );
        let lines: Vec<&str> = txt.lines().collect();
        assert!(lines[0].starts_with("PI_MAIN"));
        assert!(lines[0].contains('C'), "{txt}");
        assert!(lines[1].starts_with("P1"));
        assert!(lines[1].contains('R'), "{txt}");
        assert!(lines[1].contains('*'), "{txt}");
        assert!(lines[2].contains("0->1 @4.000000s"), "{txt}");
    }

    #[test]
    fn read_letter_strips_pi_prefix() {
        let txt = ascii_string(
            &file(),
            TimeWindow::new(0.0, 8.0),
            &RenderOptions::default().with_width(72),
        );
        assert!(txt.contains('R'));
        assert!(!txt.contains('P') || txt.contains("PI_MAIN")); // only in labels
    }

    #[test]
    fn window_clips() {
        // Window after all activity: empty rows, no arrows.
        let txt = ascii_string(
            &file(),
            TimeWindow::new(9.0, 10.0),
            &RenderOptions::default().with_width(72),
        );
        assert!(!txt.contains('C'));
        assert!(!txt.contains("arrows:"));
    }

    #[test]
    fn arrow_list_is_capped() {
        let mut f = file();
        let mut ds: Vec<Drawable> = Vec::new();
        for i in 0..30 {
            ds.push(Drawable::Arrow(ArrowDrawable {
                category: CategoryId(3),
                from_timeline: TimelineId(0),
                to_timeline: TimelineId(1),
                start: i as f64 * 0.1,
                end: i as f64 * 0.1 + 0.05,
                tag: 0,
                size: 0,
            }));
        }
        f.tree = FrameTree::build(ds, 0.0, 8.0, 8, 4);
        let txt = ascii_string(
            &f,
            TimeWindow::new(0.0, 8.0),
            &RenderOptions::default().with_width(72).with_max_arrows(5),
        );
        assert!(txt.contains("(+25 more)"), "{txt}");
    }

    #[test]
    fn deterministic() {
        let f = file();
        let opts = RenderOptions::default().with_width(72);
        let a = ascii_string(&f, TimeWindow::new(0.0, 8.0), &opts);
        let b = ascii_string(&f, TimeWindow::new(0.0, 8.0), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn lane_split_and_row_notes_annotate_rows() {
        let opts = RenderOptions::default()
            .with_width(16)
            .with_lane_split(1)
            .with_row_notes(vec![(TimelineId(1), "Δbusy -1.2s".to_string())]);
        let txt = ascii_string(&file(), TimeWindow::new(0.0, 8.0), &opts);
        let lines: Vec<&str> = txt.lines().collect();
        // Separator ruled between row 0 and row 1, note appended to row 1.
        assert!(lines[1].starts_with("=="), "{txt}");
        assert!(lines[2].ends_with("| Δbusy -1.2s"), "{txt}");
        assert!(!lines[0].contains('Δ'), "{txt}");
    }

    #[test]
    fn overlay_dims_off_path_and_lists_segments() {
        let ov = PathOverlay {
            segments: vec![(TimelineId(0), 0.0, 8.0)],
            hops: vec![(TimelineId(0), TimelineId(1), 4.0, 5.0)],
            dim_others: true,
        };
        let txt = ascii_string(
            &file(),
            TimeWindow::new(0.0, 8.0),
            &RenderOptions::default().with_width(16).with_overlay(ov),
        );
        let lines: Vec<&str> = txt.lines().collect();
        // PI_MAIN is entirely on the path: letters stay uppercase.
        assert!(lines[0].contains('C'), "{txt}");
        // P1 is off the path: its PI_Read letters are dimmed.
        assert!(lines[1].contains('r'), "{txt}");
        assert!(!lines[1].contains('R'), "{txt}");
        assert!(
            txt.contains("critical path: 1 segment(s), 1 hop(s)"),
            "{txt}"
        );
        assert!(txt.contains("PI_MAIN [0.000000s, 8.000000s]"), "{txt}");
        assert!(txt.contains("hop 0->1 @4.000000s..5.000000s"), "{txt}");
    }
}
