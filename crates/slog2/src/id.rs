//! Typed identifiers for timelines and categories.
//!
//! Every layer of the stack used to pass bare `u32`s for both timeline
//! (rank) and category indices, and nothing but naming conventions kept
//! a category index from being handed to a timeline parameter. The
//! newtypes here make that confusion a type error while staying
//! wire-compatible: both encode as the same little-endian `u32` the
//! SLOG-2 container always used.
//!
//! [`WellKnownCategory`] + [`CategoryMap`] replace the scattered
//! stringly `category_by_name("Compute")` lookups: the map is resolved
//! once per file and every analysis asks it with an enum variant, so a
//! typo'd category name is impossible and the lookup is O(1).

use std::fmt;

/// A timeline (process rank) index into [`Slog2File::timelines`].
///
/// [`Slog2File::timelines`]: crate::Slog2File::timelines
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimelineId(pub u32);

/// A category index into [`Slog2File::categories`].
///
/// [`Slog2File::categories`]: crate::Slog2File::categories
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CategoryId(pub u32);

macro_rules! id_impls {
    ($t:ident) => {
        impl $t {
            /// The raw wire value.
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// The value as a table index.
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $t {
            fn from(v: u32) -> $t {
                $t(v)
            }
        }

        impl From<$t> for u32 {
            fn from(v: $t) -> u32 {
                v.0
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
    };
}

id_impls!(TimelineId);
id_impls!(CategoryId);

/// The category names this workspace's tooling knows by heart: the
/// Pilot instrumentation states, the converter's synthetic arrow
/// category, and the salvage converter's terminal verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WellKnownCategory {
    /// The gray computation state.
    Compute,
    /// Blocking channel read (`PI_Read`).
    PiRead,
    /// Channel write (`PI_Write`).
    PiWrite,
    /// Blocking select over channels (`PI_Select`).
    PiSelect,
    /// The "msg arrival" bubble the instrumentation logs at a receive.
    MsgArrival,
    /// The converter's synthetic arrow category.
    Message,
    /// Terminal state drawn on a rank that panicked or was aborted.
    Aborted,
    /// Terminal state drawn on a rank the deadlock detector convicted.
    Deadlocked,
}

impl WellKnownCategory {
    /// Every variant, in [`CategoryMap`] slot order.
    pub const ALL: [WellKnownCategory; 8] = [
        WellKnownCategory::Compute,
        WellKnownCategory::PiRead,
        WellKnownCategory::PiWrite,
        WellKnownCategory::PiSelect,
        WellKnownCategory::MsgArrival,
        WellKnownCategory::Message,
        WellKnownCategory::Aborted,
        WellKnownCategory::Deadlocked,
    ];

    /// The display name as the converter writes it into the legend.
    pub const fn name(self) -> &'static str {
        match self {
            WellKnownCategory::Compute => "Compute",
            WellKnownCategory::PiRead => "PI_Read",
            WellKnownCategory::PiWrite => "PI_Write",
            WellKnownCategory::PiSelect => "PI_Select",
            WellKnownCategory::MsgArrival => "msg arrival",
            WellKnownCategory::Message => "message",
            WellKnownCategory::Aborted => "ABORTED",
            WellKnownCategory::Deadlocked => "DEADLOCKED",
        }
    }

    const fn slot(self) -> usize {
        match self {
            WellKnownCategory::Compute => 0,
            WellKnownCategory::PiRead => 1,
            WellKnownCategory::PiWrite => 2,
            WellKnownCategory::PiSelect => 3,
            WellKnownCategory::MsgArrival => 4,
            WellKnownCategory::Message => 5,
            WellKnownCategory::Aborted => 6,
            WellKnownCategory::Deadlocked => 7,
        }
    }
}

impl fmt::Display for WellKnownCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The well-known categories of one file, resolved once at load time.
///
/// A file is free to define any subset of the well-known names (a
/// non-Pilot log might define none), so every accessor returns an
/// `Option`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategoryMap {
    ids: [Option<CategoryId>; 8],
}

impl CategoryMap {
    /// Resolve every well-known name against `file`'s category table.
    pub fn resolve(file: &crate::Slog2File) -> CategoryMap {
        let mut ids = [None; 8];
        for c in &file.categories {
            for w in WellKnownCategory::ALL {
                if c.name == w.name() {
                    // First definition wins, matching category_by_name.
                    let slot = &mut ids[w.slot()];
                    if slot.is_none() {
                        *slot = Some(c.index);
                    }
                }
            }
        }
        CategoryMap { ids }
    }

    /// The category id carrying this well-known name, if the file
    /// defines it.
    pub fn id(&self, w: WellKnownCategory) -> Option<CategoryId> {
        self.ids[w.slot()]
    }

    /// Does `cat` carry this well-known name?
    pub fn is(&self, cat: CategoryId, w: WellKnownCategory) -> bool {
        self.id(w) == Some(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{Category, CategoryKind, Drawable};
    use crate::file::Slog2File;
    use crate::tree::FrameTree;
    use crate::window::TimeWindow;
    use mpelog::Color;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(TimelineId(1) < TimelineId(2));
        assert_eq!(CategoryId(7).to_string(), "7");
        assert_eq!(CategoryId::from(3u32).as_usize(), 3);
        assert_eq!(u32::from(TimelineId(9)), 9);
    }

    #[test]
    fn category_map_resolves_known_names() {
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
                name: "custom".into(),
                color: Color::GREEN,
                kind: CategoryKind::State,
            },
            Category {
                index: CategoryId(3),
                name: "message".into(),
                color: Color::WHITE,
                kind: CategoryKind::Arrow,
            },
        ];
        let file = Slog2File {
            timelines: vec!["PI_MAIN".into()],
            categories,
            range: TimeWindow::new(0.0, 1.0),
            warnings: vec![],
            tree: FrameTree::build(Vec::<Drawable>::new(), 0.0, 1.0, 8, 4),
        };
        let map = CategoryMap::resolve(&file);
        assert_eq!(map.id(WellKnownCategory::Compute), Some(CategoryId(0)));
        assert_eq!(map.id(WellKnownCategory::PiRead), Some(CategoryId(1)));
        assert_eq!(map.id(WellKnownCategory::Message), Some(CategoryId(3)));
        assert_eq!(map.id(WellKnownCategory::PiWrite), None);
        assert_eq!(map.id(WellKnownCategory::Aborted), None);
        assert!(map.is(CategoryId(0), WellKnownCategory::Compute));
        assert!(!map.is(CategoryId(2), WellKnownCategory::Compute));
    }

    #[test]
    fn every_variant_has_a_distinct_slot_and_name() {
        let mut names = std::collections::HashSet::new();
        let mut slots = std::collections::HashSet::new();
        for w in WellKnownCategory::ALL {
            assert!(names.insert(w.name()));
            assert!(slots.insert(w.slot()));
            assert_eq!(w.to_string(), w.name());
        }
    }
}
