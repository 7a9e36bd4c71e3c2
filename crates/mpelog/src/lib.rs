//! # mpelog — MPE-equivalent logging for the Pilot reproduction
//!
//! The paper instruments Pilot with the **Multi-Processing Environment**
//! (MPE) logging library from Argonne: each rank buffers timestamped
//! records in memory, and at program end the buffers are collected over
//! MPI, merged, and written by rank 0 into a single CLOG-2 logfile. This
//! crate reimplements that machinery on top of [`minimpi`]:
//!
//! * **Event IDs** ([`ids`]): states are *pairs* of event ids (start/end),
//!   "solo events" are single ids. Ids must be allocated in the same order
//!   on every rank, exactly as MPE requires.
//! * **Descriptions** ([`record`]): each state/solo event gets a name and a
//!   displayable [`color::Color`].
//! * **Per-rank logger** ([`logger::Logger`]): `log_event` (with the
//!   MPE-authentic 40-byte info-text limit), `log_send` / `log_receive`
//!   records that the converter later pairs into message arrows.
//! * **Clock synchronization** ([`sync`]): Cristian-style offset probing
//!   against rank 0, the analogue of `MPE_Log_sync_clocks`, needed because
//!   [`minimpi`] can inject per-rank clock drift.
//! * **CLOG2 container** ([`clog2`]): a blocked binary file of per-rank
//!   record streams, plus [`clog2::finish_log`] which performs the gather/
//!   merge/write wrap-up — the step whose cost the paper measures, and the
//!   step that is *lost* when the program aborts (Section III.B of the
//!   paper; reproduced in our integration tests).

pub mod clog2;
pub mod color;
pub mod ids;
pub mod logger;
pub mod record;
pub mod spill;
pub mod sync;
pub mod wire;

pub use clog2::{
    finish_log, Clog2File, Clog2Image, ImageBlock, ImageChunk, Salvaged, SalvagedClog, StreamError,
};
pub use color::Color;
pub use ids::{EventId, IdAllocator};
pub use logger::Logger;
pub use record::{EventDef, Record, RecordView, StateDef, MAX_INFO_BYTES};
pub use spill::{salvage, SpillWriter};
pub use sync::{sync_clocks, ClockCorrection};
