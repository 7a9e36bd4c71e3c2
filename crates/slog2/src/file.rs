//! The SLOG-2 container file.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic        8   b"PSLOG2\x00\x01"
//! capacity     u32     frame-tree split threshold
//! max_depth    u32
//! range        f64 x2  (t_min, t_max)
//! timelines    u32 count + strings (index = rank)
//! categories   u32 count + Category...
//! warnings     u32 count + strings (converter diagnostics)
//! n_nodes      u32
//! directory    n_nodes x u64  absolute byte offset of each node (pre-order)
//! nodes        pre-order; each: t0 f64, t1 f64, depth u32,
//!              has_children u8, n_drawables u32 + Drawable...,
//!              preview: u32 count + (cat u32, count u64, coverage f64)...
//! ```
//!
//! The directory gives random access to any frame without parsing the
//! whole tree — the property that makes real SLOG-2 scrollable at any
//! zoom level. [`Slog2File::read_node_at`] demonstrates it.

use std::path::Path;

use mpelog::wire::{Reader, WireError, Writer};

use crate::drawable::{Category, Drawable};
use crate::error::Slog2Error;
use crate::id::{CategoryId, CategoryMap, TimelineId};
use crate::tree::{FrameNode, FrameTree, Preview, PreviewEntry};
use crate::window::TimeWindow;

const MAGIC: &[u8; 8] = b"PSLOG2\x00\x01";

/// A complete SLOG-2 log: timelines, legend categories, frame tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Slog2File {
    /// Timeline display names, indexed by rank (`"P0"`, or a
    /// `PI_SetName` name).
    pub timelines: Vec<String>,
    /// Legend categories.
    pub categories: Vec<Category>,
    /// Global time range `[t_min, t_max]`.
    pub range: TimeWindow,
    /// Converter diagnostics ("Equal Drawables", unmatched sends, …).
    pub warnings: Vec<String>,
    /// The frame tree.
    pub tree: FrameTree,
}

impl Slog2File {
    /// Total drawable count.
    pub fn total_drawables(&self) -> usize {
        self.tree.total_drawables()
    }

    /// Look a category up by name.
    pub fn category_by_name(&self, name: &str) -> Option<&Category> {
        self.categories.iter().find(|c| c.name == name)
    }

    /// Look a category up by id. This resolves by the category's
    /// declared `index` field, not by table position (the two coincide
    /// for converter output but a hand-built file may differ).
    pub fn category(&self, id: CategoryId) -> Option<&Category> {
        self.categories
            .get(id.as_usize())
            .filter(|c| c.index == id)
            .or_else(|| self.categories.iter().find(|c| c.index == id))
    }

    /// A timeline's display name.
    pub fn timeline_name(&self, id: TimelineId) -> Option<&str> {
        self.timelines.get(id.as_usize()).map(String::as_str)
    }

    /// Every timeline id in table order.
    pub fn timeline_ids(&self) -> impl Iterator<Item = TimelineId> + '_ {
        (0..self.timelines.len() as u32).map(TimelineId)
    }

    /// Resolve the file's [`WellKnownCategory`] table once.
    ///
    /// [`WellKnownCategory`]: crate::WellKnownCategory
    pub fn category_map(&self) -> CategoryMap {
        CategoryMap::resolve(self)
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4096);
        let dir_start = Header {
            capacity: self.tree.capacity,
            max_depth: self.tree.max_depth,
            range: self.range,
            timelines: &self.timelines,
            categories: &self.categories,
            warnings: &self.warnings,
            n_nodes: self.tree.node_count(),
        }
        .encode(&mut w);
        let mut idx = 0usize;
        encode_node(&self.tree.root, &mut w, dir_start, &mut idx);
        w.into_bytes()
    }

    /// Whether `bytes` begin with the SLOG2 magic — a cheap format
    /// sniff for upload endpoints that accept several wire formats.
    /// A `true` here promises nothing about the rest of the bytes.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
    }

    /// Parse from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Slog2File, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.get_bytes(8)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(format!("{magic:02x?}")));
        }
        let capacity = r.get_u32()? as usize;
        let max_depth = r.get_u32()?;
        let range = TimeWindow::new(r.get_f64()?, r.get_f64()?);
        let ntl = checked_count(r.get_u32()?, bytes.len())?;
        let mut timelines = Vec::with_capacity(ntl);
        for _ in 0..ntl {
            timelines.push(r.get_str()?);
        }
        let ncat = checked_count(r.get_u32()?, bytes.len())?;
        let mut categories = Vec::with_capacity(ncat);
        for _ in 0..ncat {
            categories.push(Category::decode(&mut r)?);
        }
        let nwarn = checked_count(r.get_u32()?, bytes.len())?;
        let mut warnings = Vec::with_capacity(nwarn);
        for _ in 0..nwarn {
            warnings.push(r.get_str()?);
        }
        let n_nodes = checked_count(r.get_u32()?, bytes.len())?;
        // Skip the directory; sequential parse doesn't need it.
        let _dir = r.get_bytes(n_nodes * 8)?;
        let mut consumed = 0usize;
        let root = decode_node(&mut r, &mut consumed, n_nodes)?;
        if consumed != n_nodes {
            return Err(WireError::Corrupt(format!(
                "directory says {n_nodes} nodes, parsed {consumed}"
            )));
        }
        Ok(Slog2File {
            timelines,
            categories,
            range,
            warnings,
            tree: FrameTree {
                root,
                capacity,
                max_depth,
            },
        })
    }

    /// Random access: read the `idx`-th node (pre-order) straight from
    /// the byte image using the directory, without parsing anything else.
    /// Children are not attached (`children: None`); this is the frame-
    /// level access a scrolling viewer performs.
    pub fn read_node_at(bytes: &[u8], idx: usize) -> Result<FrameNode, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.get_bytes(8)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(format!("{magic:02x?}")));
        }
        let _capacity = r.get_u32()?;
        let _max_depth = r.get_u32()?;
        let _range = (r.get_f64()?, r.get_f64()?);
        for _ in 0..r.get_u32()? {
            r.get_str()?;
        }
        for _ in 0..r.get_u32()? {
            Category::decode(&mut r)?;
        }
        for _ in 0..r.get_u32()? {
            r.get_str()?;
        }
        let n_nodes = r.get_u32()? as usize;
        if idx >= n_nodes {
            return Err(WireError::Corrupt(format!(
                "node {idx} out of range ({n_nodes} nodes)"
            )));
        }
        let dir_pos = r.position() + idx * 8;
        let mut dr = Reader::new(bytes);
        dr.seek(dir_pos)?;
        let off = dr.get_u64()? as usize;
        let mut nr = Reader::new(bytes);
        nr.seek(off)?;
        let (node, _has_children) = decode_one_node(&mut nr)?;
        Ok(node)
    }

    /// Write to a file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file. I/O and decode failures both surface through
    /// the single [`Slog2Error`], so `?` works at every call site.
    pub fn read_from(path: &Path) -> Result<Slog2File, Slog2Error> {
        Ok(Slog2File::from_bytes(&std::fs::read(path)?)?)
    }

    /// Read from a file and insist it passes
    /// [`validate`](crate::validate::validate); defects surface as
    /// [`Slog2Error::Validate`]. This is what long-running consumers
    /// (the `pilotd` query service) use, so a defective file is refused
    /// at load instead of rendering a wrong picture later.
    pub fn read_validated(path: &Path) -> Result<Slog2File, Slog2Error> {
        let file = Slog2File::read_from(path)?;
        let defects = crate::validate::validate(&file);
        if defects.is_empty() {
            Ok(file)
        } else {
            Err(Slog2Error::Validate(defects))
        }
    }
}

fn checked_count(v: u32, bound: usize) -> Result<usize, WireError> {
    let n = v as usize;
    if n > bound {
        return Err(WireError::Corrupt(format!("count {n} exceeds file size")));
    }
    Ok(n)
}

/// Everything before the node directory. The in-memory writer
/// ([`Slog2File::to_bytes`]) and the out-of-core writer both encode it
/// here, and frame their nodes with [`encode_frame`] and
/// [`encode_preview`].
pub(crate) struct Header<'a> {
    pub(crate) capacity: usize,
    pub(crate) max_depth: u32,
    pub(crate) range: TimeWindow,
    pub(crate) timelines: &'a [String],
    pub(crate) categories: &'a [Category],
    pub(crate) warnings: &'a [String],
    pub(crate) n_nodes: usize,
}

impl Header<'_> {
    /// Encode the header plus a zeroed node directory; returns the
    /// directory's offset.
    pub(crate) fn encode(&self, w: &mut Writer) -> usize {
        w.put_bytes(MAGIC);
        w.put_u32(self.capacity as u32);
        w.put_u32(self.max_depth);
        w.put_f64(self.range.t0);
        w.put_f64(self.range.t1);
        w.put_u32(self.timelines.len() as u32);
        for t in self.timelines {
            w.put_str(t);
        }
        w.put_u32(self.categories.len() as u32);
        for c in self.categories {
            c.encode(w);
        }
        w.put_u32(self.warnings.len() as u32);
        for s in self.warnings {
            w.put_str(s);
        }
        w.put_u32(self.n_nodes as u32);
        let dir_start = w.len();
        for _ in 0..self.n_nodes {
            w.put_u64(0);
        }
        dir_start
    }
}

/// A node's frame, ahead of its `n_drawables` encoded drawables.
pub(crate) fn encode_frame(
    w: &mut Writer,
    t0: f64,
    t1: f64,
    depth: u32,
    split: bool,
    n_drawables: usize,
) {
    w.put_f64(t0);
    w.put_f64(t1);
    w.put_u32(depth);
    w.put_u8(split as u8);
    w.put_u32(n_drawables as u32);
}

/// A node's preview, after its drawables.
pub(crate) fn encode_preview(w: &mut Writer, preview: &Preview) {
    w.put_u32(preview.entries.len() as u32);
    for e in &preview.entries {
        w.put_u32(e.category.0);
        w.put_u64(e.count);
        w.put_f64(e.coverage);
    }
}

fn encode_node(node: &FrameNode, w: &mut Writer, dir_start: usize, idx: &mut usize) {
    w.patch_u64(dir_start + *idx * 8, w.len() as u64);
    *idx += 1;
    let split = node.children.is_some();
    encode_frame(w, node.t0, node.t1, node.depth, split, node.drawables.len());
    for d in &node.drawables {
        d.encode(w);
    }
    encode_preview(w, &node.preview);
    if let Some(ch) = &node.children {
        encode_node(&ch.0, w, dir_start, idx);
        encode_node(&ch.1, w, dir_start, idx);
    }
}

fn decode_one_node(r: &mut Reader<'_>) -> Result<(FrameNode, bool), WireError> {
    let t0 = r.get_f64()?;
    let t1 = r.get_f64()?;
    let depth = r.get_u32()?;
    let has_children = r.get_u8()? != 0;
    let nd = r.get_u32()? as usize;
    if nd > r.remaining() {
        return Err(WireError::Corrupt("drawable count".into()));
    }
    let mut drawables = Vec::with_capacity(nd);
    for _ in 0..nd {
        drawables.push(Drawable::decode(r)?);
    }
    let np = r.get_u32()? as usize;
    if np > r.remaining() {
        return Err(WireError::Corrupt("preview count".into()));
    }
    let mut entries = Vec::with_capacity(np);
    for _ in 0..np {
        entries.push(PreviewEntry {
            category: CategoryId(r.get_u32()?),
            count: r.get_u64()?,
            coverage: r.get_f64()?,
        });
    }
    Ok((
        FrameNode {
            t0,
            t1,
            depth,
            drawables,
            preview: Preview { entries },
            children: None,
        },
        has_children,
    ))
}

fn decode_node(
    r: &mut Reader<'_>,
    consumed: &mut usize,
    limit: usize,
) -> Result<FrameNode, WireError> {
    if *consumed >= limit {
        return Err(WireError::Corrupt(
            "more nodes than directory entries".into(),
        ));
    }
    *consumed += 1;
    let (mut node, has_children) = decode_one_node(r)?;
    if has_children {
        let l = decode_node(r, consumed, limit)?;
        let rr = decode_node(r, consumed, limit)?;
        node.children = Some(Box::new((l, rr)));
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{CategoryKind, EventDrawable, StateDrawable};
    use mpelog::Color;

    fn sample() -> Slog2File {
        let ds: Vec<Drawable> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    Drawable::State(StateDrawable {
                        category: CategoryId(0),
                        timeline: TimelineId((i % 3) as u32),
                        start: i as f64 * 0.1,
                        end: i as f64 * 0.1 + 0.05,
                        nest_level: 0,
                        text: format!("Line: {i}"),
                    })
                } else {
                    Drawable::Event(EventDrawable {
                        category: CategoryId(1),
                        timeline: TimelineId((i % 3) as u32),
                        time: i as f64 * 0.1,
                        text: String::new(),
                    })
                }
            })
            .collect();
        let tree = FrameTree::build(ds, 0.0, 4.0, 4, 8);
        Slog2File {
            timelines: vec!["PI_MAIN".into(), "P1".into(), "P2".into()],
            categories: vec![
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
            ],
            range: TimeWindow::new(0.0, 4.0),
            warnings: vec!["Equal Drawables: 2 x arrival".into()],
            tree,
        }
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let f = sample();
        let back = Slog2File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[1] = b'Z';
        assert!(matches!(
            Slog2File::from_bytes(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().to_bytes();
        // Cut at a spread of positions; parsing must error, never panic.
        for cut in (0..bytes.len()).step_by(97) {
            assert!(Slog2File::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn directory_random_access_matches_tree() {
        let f = sample();
        let bytes = f.to_bytes();
        // Collect pre-order nodes from the in-memory tree.
        let mut nodes = Vec::new();
        f.tree.visit(&mut |n| nodes.push(n));
        for (i, want) in nodes.iter().enumerate() {
            let got = Slog2File::read_node_at(&bytes, i).unwrap();
            assert_eq!(got.t0, want.t0);
            assert_eq!(got.t1, want.t1);
            assert_eq!(got.depth, want.depth);
            assert_eq!(got.drawables, want.drawables);
            assert_eq!(got.preview, want.preview);
        }
    }

    #[test]
    fn read_node_out_of_range_errors() {
        let bytes = sample().to_bytes();
        assert!(Slog2File::read_node_at(&bytes, 10_000).is_err());
    }

    #[test]
    fn file_io_roundtrip() {
        let dir = std::env::temp_dir().join("slog2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pslog2");
        let f = sample();
        f.write_to(&path).unwrap();
        assert_eq!(Slog2File::read_from(&path).unwrap(), f);
        assert_eq!(Slog2File::read_validated(&path).unwrap(), f);
    }

    #[test]
    fn read_from_missing_file_is_io_error() {
        let err = Slog2File::read_from(Path::new("/nonexistent/nope.pslog2")).unwrap_err();
        assert!(matches!(err, Slog2Error::Io(_)));
    }

    #[test]
    fn read_validated_rejects_defective_file() {
        let dir = std::env::temp_dir().join("slog2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("defective.pslog2");
        let mut f = sample();
        // Claim a range that excludes every drawable: OutOfRange defects.
        f.range = TimeWindow::new(100.0, 101.0);
        f.write_to(&path).unwrap();
        assert!(Slog2File::read_from(&path).is_ok());
        let err = Slog2File::read_validated(&path).unwrap_err();
        assert!(matches!(err, Slog2Error::Validate(ref d) if !d.is_empty()));
    }

    #[test]
    fn category_lookup() {
        let f = sample();
        assert_eq!(f.category_by_name("PI_Read").unwrap().index, CategoryId(0));
        assert_eq!(f.category(CategoryId(0)).unwrap().name, "PI_Read");
        assert!(f.category(CategoryId(9)).is_none());
        assert_eq!(f.timeline_name(TimelineId(1)), Some("P1"));
        assert_eq!(f.timeline_ids().count(), 3);
        assert!(f.category_by_name("PI_Write").is_none());
    }
}
