//! # slog2 — the SLOG-2 container and the CLOG2→SLOG2 converter
//!
//! Jumpshot does not read CLOG-2 directly: a converter (`clog2TOslog2`)
//! first pairs raw event records into *drawables* — state rectangles,
//! solo-event bubbles, and message arrows — and organizes them into a
//! binary tree of *frames* over time so a viewer can fetch any zoom
//! window without scanning the whole file. This crate reproduces both
//! halves:
//!
//! * [`convert`]: the [`Converter`] pairs state start/end events (with
//!   nesting), matches send/receive records into arrows, detects the
//!   **Equal Drawables** condition the paper hits (identical timestamps
//!   from a limited-resolution `MPI_Wtime`), and reports
//!   "non-well-behaved" logs (unclosed states, unmatched sends, torn
//!   files) as warnings rather than producing a silently defective
//!   file. One pipeline serves every [`TraceSource`], both torn-input
//!   policies, and both the in-memory and the out-of-core ([`oocore`])
//!   writer.
//! * [`tree`]: the frame tree. Each drawable lives in the shallowest
//!   node whose time interval fully contains it; every node carries a
//!   per-category *preview* histogram so a zoomed-out view can draw
//!   proportional colour stripes — the outlined rectangles of the
//!   paper's Fig. 1 — without touching the leaves.
//! * [`file`](mod@file): a binary container with a node directory (byte offsets),
//!   allowing random access to any frame, plus whole-file round-trip.
//! * [`stats`]: the legend-table numbers Jumpshot shows — per-category
//!   instance count, *inclusive* duration, and *exclusive* duration
//!   (inclusive minus nested states).

pub(crate) mod columnar;
pub mod convert;
pub mod drawable;
pub mod error;
pub mod file;
pub mod fnv;
pub mod id;
pub mod oocore;
pub(crate) mod scan;
pub mod source;
pub mod stats;
pub mod tree;
pub mod validate;
pub mod window;

pub use convert::{
    Conversion, ConvertWarning, Converter, FailureKind, RankVerdict, SalvageReport, TornPolicy,
};
pub use drawable::{ArrowDrawable, Category, CategoryKind, Drawable, EventDrawable, StateDrawable};
pub use error::Slog2Error;
pub use file::Slog2File;
pub use id::{CategoryId, CategoryMap, TimelineId, WellKnownCategory};
pub use oocore::ConvertSummary;
pub use source::{Mmap, TraceSource};
pub use stats::{legend_stats, CategoryStats};
pub use tree::{FrameNode, FrameTree, Preview};
pub use validate::{validate, Defect};
pub use window::TimeWindow;
