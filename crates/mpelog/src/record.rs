//! Log record types and their wire encoding.

use crate::color::Color;
use crate::ids::EventId;
use crate::wire::{Reader, WireError, Writer};

/// MPE limits the optional info text attached to an event instance to
/// 40 bytes; we keep the same limit (and truncate, as MPE does).
pub const MAX_INFO_BYTES: usize = 40;

/// Definition of a state: a (start, end) event-id pair with display
/// properties. Instances inherit the name and colour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDef {
    /// Event id logged when the state begins.
    pub start: EventId,
    /// Event id logged when the state ends.
    pub end: EventId,
    /// Display name, e.g. `"PI_Read"`.
    pub name: String,
    /// Rectangle colour.
    pub color: Color,
}

/// Definition of a solo event (a "bubble").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDef {
    /// The event id.
    pub id: EventId,
    /// Display name, e.g. `"msg arrival"`.
    pub name: String,
    /// Bubble colour.
    pub color: Color,
}

/// A timestamped record in a rank's log buffer.
///
/// Timestamps are the rank's *local* clock readings; the clock-sync
/// correction is applied when the log is finalized.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An event instance: either one endpoint of a state, or a solo event.
    Event {
        /// Local timestamp (seconds since world start, this rank's clock).
        ts: f64,
        /// Which event.
        id: EventId,
        /// Info text (≤ [`MAX_INFO_BYTES`] after truncation).
        text: String,
    },
    /// A message-send record (`MPE_Log_send`).
    Send {
        /// Local timestamp.
        ts: f64,
        /// Destination rank.
        dst: u32,
        /// Message tag (pairs with the matching `Recv`).
        tag: u32,
        /// Message size in bytes.
        size: u32,
    },
    /// A message-receive record (`MPE_Log_receive`).
    Recv {
        /// Local timestamp.
        ts: f64,
        /// Source rank.
        src: u32,
        /// Message tag (pairs with the matching `Send`).
        tag: u32,
        /// Message size in bytes.
        size: u32,
    },
}

impl Record {
    /// The record's timestamp.
    pub fn ts(&self) -> f64 {
        match self {
            Record::Event { ts, .. } | Record::Send { ts, .. } | Record::Recv { ts, .. } => *ts,
        }
    }

    /// Return a copy with the timestamp transformed by `f` (clock-sync
    /// correction at finalize time).
    pub fn map_ts(&self, f: impl Fn(f64) -> f64) -> Record {
        let mut r = self.clone();
        match &mut r {
            Record::Event { ts, .. } | Record::Send { ts, .. } | Record::Recv { ts, .. } => {
                *ts = f(*ts)
            }
        }
        r
    }
}

/// Truncate info text to the MPE limit, at a char boundary.
pub fn clamp_info(text: &str) -> String {
    if text.len() <= MAX_INFO_BYTES {
        return text.to_string();
    }
    let mut cut = MAX_INFO_BYTES;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

// ---- wire encoding ----

const KIND_EVENT: u8 = 1;
const KIND_SEND: u8 = 2;
const KIND_RECV: u8 = 3;

impl Record {
    /// Serialize into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Record::Event { ts, id, text } => {
                w.put_u8(KIND_EVENT);
                w.put_f64(*ts);
                w.put_u32(id.0);
                w.put_str(text);
            }
            Record::Send { ts, dst, tag, size } => {
                w.put_u8(KIND_SEND);
                w.put_f64(*ts);
                w.put_u32(*dst);
                w.put_u32(*tag);
                w.put_u32(*size);
            }
            Record::Recv { ts, src, tag, size } => {
                w.put_u8(KIND_RECV);
                w.put_f64(*ts);
                w.put_u32(*src);
                w.put_u32(*tag);
                w.put_u32(*size);
            }
        }
    }

    /// Deserialize one record.
    pub fn decode(r: &mut Reader<'_>) -> Result<Record, WireError> {
        Record::decode_view(r).map(Record::from)
    }
}

/// A borrowed view of one decoded record: the info text references the
/// underlying byte buffer instead of being copied into a `String`.
///
/// This is the zero-copy scan path: when the CLOG2 bytes are memory
/// mapped, record text flows straight from the page cache into the
/// converter's text arena without an intermediate heap allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordView<'a> {
    /// An event instance (state endpoint or solo event).
    Event {
        /// Local timestamp.
        ts: f64,
        /// Which event.
        id: EventId,
        /// Info text, borrowed from the wire buffer.
        text: &'a str,
    },
    /// A message-send record.
    Send {
        /// Local timestamp.
        ts: f64,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Message size in bytes.
        size: u32,
    },
    /// A message-receive record.
    Recv {
        /// Local timestamp.
        ts: f64,
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: u32,
        /// Message size in bytes.
        size: u32,
    },
}

impl RecordView<'_> {
    /// The record's timestamp.
    pub fn ts(&self) -> f64 {
        match self {
            RecordView::Event { ts, .. }
            | RecordView::Send { ts, .. }
            | RecordView::Recv { ts, .. } => *ts,
        }
    }
}

impl<'a> From<&'a Record> for RecordView<'a> {
    fn from(r: &'a Record) -> RecordView<'a> {
        match r {
            Record::Event { ts, id, text } => RecordView::Event {
                ts: *ts,
                id: *id,
                text,
            },
            Record::Send { ts, dst, tag, size } => RecordView::Send {
                ts: *ts,
                dst: *dst,
                tag: *tag,
                size: *size,
            },
            Record::Recv { ts, src, tag, size } => RecordView::Recv {
                ts: *ts,
                src: *src,
                tag: *tag,
                size: *size,
            },
        }
    }
}

impl From<RecordView<'_>> for Record {
    fn from(v: RecordView<'_>) -> Record {
        match v {
            RecordView::Event { ts, id, text } => Record::Event {
                ts,
                id,
                text: text.to_string(),
            },
            RecordView::Send { ts, dst, tag, size } => Record::Send { ts, dst, tag, size },
            RecordView::Recv { ts, src, tag, size } => Record::Recv { ts, src, tag, size },
        }
    }
}

impl Record {
    /// Deserialize one record without copying its text (see
    /// [`RecordView`]).
    pub fn decode_view<'a>(r: &mut Reader<'a>) -> Result<RecordView<'a>, WireError> {
        match r.get_u8()? {
            KIND_EVENT => Ok(RecordView::Event {
                ts: r.get_f64()?,
                id: EventId(r.get_u32()?),
                text: r.get_str_slice()?,
            }),
            KIND_SEND => Ok(RecordView::Send {
                ts: r.get_f64()?,
                dst: r.get_u32()?,
                tag: r.get_u32()?,
                size: r.get_u32()?,
            }),
            KIND_RECV => Ok(RecordView::Recv {
                ts: r.get_f64()?,
                src: r.get_u32()?,
                tag: r.get_u32()?,
                size: r.get_u32()?,
            }),
            k => Err(WireError::Corrupt(format!("unknown record kind {k}"))),
        }
    }
}

impl StateDef {
    /// Serialize into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.start.0);
        w.put_u32(self.end.0);
        w.put_str(&self.name);
        w.put_u32(self.color.pack());
    }

    /// Deserialize one definition.
    pub fn decode(r: &mut Reader<'_>) -> Result<StateDef, WireError> {
        Ok(StateDef {
            start: EventId(r.get_u32()?),
            end: EventId(r.get_u32()?),
            name: r.get_str()?,
            color: Color::unpack(r.get_u32()?),
        })
    }
}

impl EventDef {
    /// Serialize into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.id.0);
        w.put_str(&self.name);
        w.put_u32(self.color.pack());
    }

    /// Deserialize one definition.
    pub fn decode(r: &mut Reader<'_>) -> Result<EventDef, WireError> {
        Ok(EventDef {
            id: EventId(r.get_u32()?),
            name: r.get_str()?,
            color: Color::unpack(r.get_u32()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) -> Record {
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = Record::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn record_roundtrips() {
        let recs = [
            Record::Event {
                ts: 1.5,
                id: EventId(3),
                text: "Line: 42".into(),
            },
            Record::Send {
                ts: 2.0,
                dst: 7,
                tag: 1000,
                size: 4096,
            },
            Record::Recv {
                ts: 2.5,
                src: 7,
                tag: 1000,
                size: 4096,
            },
        ];
        for rec in &recs {
            assert_eq!(&roundtrip(rec), rec);
        }
    }

    #[test]
    fn statedef_eventdef_roundtrip() {
        let sd = StateDef {
            start: EventId(0),
            end: EventId(1),
            name: "PI_Read".into(),
            color: Color::RED,
        };
        let mut w = Writer::new();
        sd.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(StateDef::decode(&mut Reader::new(&bytes)).unwrap(), sd);

        let ed = EventDef {
            id: EventId(9),
            name: "arrival".into(),
            color: Color::YELLOW,
        };
        let mut w = Writer::new();
        ed.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(EventDef::decode(&mut Reader::new(&bytes)).unwrap(), ed);
    }

    #[test]
    fn clamp_info_enforces_mpe_limit() {
        let long = "x".repeat(100);
        assert_eq!(clamp_info(&long).len(), MAX_INFO_BYTES);
        assert_eq!(clamp_info("short"), "short");
    }

    #[test]
    fn clamp_info_respects_char_boundaries() {
        // 'é' is 2 bytes; build a string whose 40th byte splits a char.
        let s = format!("{}é", "a".repeat(39));
        let clamped = clamp_info(&s);
        assert!(clamped.len() <= MAX_INFO_BYTES);
        assert!(clamped.is_char_boundary(clamped.len()));
        assert_eq!(clamped, "a".repeat(39));
    }

    #[test]
    fn unknown_kind_is_corrupt() {
        let bytes = [200u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Record::decode(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_view_rejects_bad_utf8() {
        let mut w = Writer::new();
        w.put_u8(1); // KIND_EVENT
        w.put_f64(0.0);
        w.put_u32(0);
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(
            Record::decode_view(&mut Reader::new(&bytes)),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn map_ts_shifts_only_time() {
        let r = Record::Send {
            ts: 5.0,
            dst: 1,
            tag: 2,
            size: 3,
        };
        let shifted = r.map_ts(|t| t - 1.0);
        assert_eq!(shifted.ts(), 4.0);
        if let Record::Send { dst, tag, size, .. } = shifted {
            assert_eq!((dst, tag, size), (1, 2, 3));
        } else {
            panic!("kind changed");
        }
    }
}
