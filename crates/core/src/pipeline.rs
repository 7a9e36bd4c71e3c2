//! The one-call pipeline: run → CLOG2 → SLOG2 → views.

use std::path::Path;

use jumpshot::{HistogramRenderer, Legend, LegendSort, RenderOptions, Renderer, SvgRenderer};
use pilot::{Pilot, PilotConfig, PilotOutcome, PilotResult};
use slog2::{ConvertWarning, Converter, Slog2File, TimeWindow, TraceSource};

/// Pipeline options.
#[derive(Debug, Clone, Default)]
pub struct VisOptions {
    /// The CLOG2→SLOG2 converter (frame size etc.). Unless it sets
    /// timeline names, the run's process names are used.
    pub convert: Converter,
    /// Rendering parameters.
    pub render: RenderOptions,
}

impl VisOptions {
    /// Set the converter's worker-thread count (see
    /// [`Converter::parallelism`]): `0` = one per core, `1` = serial.
    /// The converted file is byte-identical at every setting.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.convert = self.convert.parallelism(parallelism);
        self
    }
}

/// A completed, visualizable run.
#[derive(Debug)]
pub struct VisRun {
    /// The Pilot run outcome (exit codes, native log, deadlock report…).
    pub outcome: PilotOutcome,
    /// The converted SLOG2 log, if MPE logging was on and the run
    /// finished cleanly enough to merge the log.
    pub slog: Option<Slog2File>,
    /// Typed conversion diagnostics (Equal Drawables, unmatched sends…).
    pub warnings: Vec<ConvertWarning>,
    /// Rendering options carried along for the render helpers.
    render_opts: RenderOptions,
}

/// Run `program` under `config` and convert its MPE log.
///
/// Timeline names come from the Pilot process names (`PI_SetName`), the
/// way the paper's popups and rows are labelled.
pub fn visualize<'env, F>(config: PilotConfig, opts: VisOptions, program: F) -> VisRun
where
    F: for<'r> Fn(&Pilot<'r, 'env>) -> PilotResult<i32> + Send + Sync + 'env,
{
    let outcome = pilot::run(config, program);
    let (slog, warnings) = match outcome.clog() {
        Some(clog) => {
            let names = &outcome.artifacts.process_names;
            let mut conv = opts.convert;
            if conv.custom_timeline_names().is_none() && !names.is_empty() {
                conv = conv.timeline_names(names.clone());
            }
            let conv = conv
                .convert(TraceSource::InMemory(clog))
                .expect("in-memory source cannot fail");
            (Some(conv.file), conv.warnings)
        }
        None => (None, Vec::new()),
    };
    VisRun {
        outcome,
        slog,
        warnings,
        render_opts: opts.render,
    }
}

impl VisRun {
    /// Did the run finish cleanly (no abort, panic, or deadlock)?
    pub fn is_clean(&self) -> bool {
        self.outcome.is_clean()
    }

    /// Render the full time range at `width_px` — the paper's Fig. 1
    /// style whole-run view.
    pub fn render_full(&self, width_px: u32) -> Option<String> {
        let slog = self.slog.as_ref()?;
        let opts = self.render_opts.clone().with_width(width_px);
        Some(SvgRenderer.render(slog, &opts))
    }

    /// Render a zoomed window — the Fig. 2 style view.
    pub fn render_window(&self, w: TimeWindow, width_px: u32) -> Option<String> {
        let slog = self.slog.as_ref()?;
        let opts = self.render_opts.clone().with_window(w).with_width(width_px);
        Some(SvgRenderer.render(slog, &opts))
    }

    /// Render and write an SVG file.
    pub fn render_to_file(&self, path: &Path, width_px: u32) -> std::io::Result<bool> {
        match self.render_full(width_px) {
            Some(svg) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(path, svg)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The legend for this run.
    pub fn legend(&self) -> Option<Legend> {
        self.slog.as_ref().map(Legend::for_file)
    }

    /// The legend rendered as the text table the `repro` harness prints.
    pub fn legend_text(&self) -> Option<String> {
        self.legend()
            .map(|l| jumpshot::render_legend_text(&l, LegendSort::Index))
    }

    /// Save the raw merged CLOG2 file.
    pub fn save_clog(&self, path: &Path) -> std::io::Result<bool> {
        match self.outcome.clog() {
            Some(clog) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                clog.write_to(path)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Run the SLOG2 integrity validator over this run's log — the
    /// "defective SLOG-2 file" check. Empty means sound; `None` means
    /// there is no log.
    pub fn validate(&self) -> Option<Vec<slog2::Defect>> {
        self.slog.as_ref().map(slog2::validate)
    }

    /// Render the duration-statistics histogram (load-imbalance view)
    /// for a window, defaulting to the full range.
    pub fn render_histogram(&self, window: Option<TimeWindow>, width_px: u32) -> Option<String> {
        let slog = self.slog.as_ref()?;
        let mut opts = RenderOptions::default().with_width(width_px);
        opts.window = window;
        Some(HistogramRenderer.render(slog, &opts))
    }

    /// Save the converted SLOG2 file.
    pub fn save_slog(&self, path: &Path) -> std::io::Result<bool> {
        match &self.slog {
            Some(slog) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                slog.write_to(path)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilot::{RSlot, Services, WSlot, PI_MAIN};

    fn logged_cfg(ranks: usize) -> PilotConfig {
        PilotConfig::new(ranks).with_services(Services::parse("j").unwrap())
    }

    fn tiny_program<'r, 'env>(pi: &Pilot<'r, 'env>) -> PilotResult<i32> {
        let w = pi.create_process(0)?;
        pi.set_process_name(w, "worker")?;
        let c = pi.create_channel(PI_MAIN, w)?;
        pi.assign_work(w, move |pi, _| {
            let mut x = 0i64;
            pi.read(c, "%d", &mut [RSlot::Int(&mut x)]).unwrap();
            0
        })?;
        pi.start_all()?;
        pi.write(c, "%d", &[WSlot::Int(1)])?;
        pi.stop_main(0)
    }

    #[test]
    fn visualize_produces_slog_and_svg() {
        let run = visualize(logged_cfg(2), VisOptions::default(), tiny_program);
        assert!(run.is_clean(), "{:?}", run.outcome);
        assert!(run.warnings.is_empty(), "{:?}", run.warnings);
        let slog = run.slog.as_ref().unwrap();
        assert_eq!(
            slog.timelines,
            vec!["PI_MAIN".to_string(), "worker".to_string()]
        );
        let svg = run.render_full(800).unwrap();
        assert!(svg.contains("<svg"));
        assert!(svg.contains("worker"));
        assert!(svg.contains("class=\"arrow\""));
    }

    #[test]
    fn zoomed_render_clamps_to_range() {
        let run = visualize(logged_cfg(2), VisOptions::default(), tiny_program);
        let svg = run
            .render_window(TimeWindow::new(-100.0, 100.0), 400)
            .unwrap();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn legend_lists_pilot_categories() {
        let run = visualize(logged_cfg(2), VisOptions::default(), tiny_program);
        let text = run.legend_text().unwrap();
        for name in ["PI_Configure", "Compute", "PI_Read", "PI_Write", "message"] {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn without_logging_service_there_is_no_slog() {
        let run = visualize(PilotConfig::new(2), VisOptions::default(), tiny_program);
        assert!(run.is_clean());
        assert!(run.slog.is_none());
        assert!(run.render_full(800).is_none());
        assert!(run.legend().is_none());
    }

    #[test]
    fn produced_logs_validate_and_histogram_renders() {
        let run = visualize(logged_cfg(2), VisOptions::default(), tiny_program);
        assert_eq!(run.validate().unwrap(), vec![]);
        let hist = run.render_histogram(None, 600).unwrap();
        assert!(hist.contains("Duration statistics"));
        assert!(hist.contains("PI_MAIN"));
    }

    #[test]
    fn parallel_conversion_matches_serial_on_a_real_run() {
        let run = visualize(
            logged_cfg(2),
            VisOptions::default().with_parallelism(4),
            tiny_program,
        );
        let slog = run.slog.as_ref().unwrap();
        let serial = Converter::new()
            .timeline_names(run.outcome.artifacts.process_names.clone())
            .parallelism(1)
            .convert(TraceSource::InMemory(run.outcome.clog().unwrap()))
            .unwrap()
            .file;
        assert_eq!(serial.to_bytes(), slog.to_bytes());
    }

    #[test]
    fn files_roundtrip_via_disk() {
        let run = visualize(logged_cfg(2), VisOptions::default(), tiny_program);
        let dir = std::env::temp_dir().join("pilot-vis-test");
        std::fs::create_dir_all(&dir).unwrap();
        let clog_path = dir.join("run.pclog2");
        let slog_path = dir.join("run.pslog2");
        let svg_path = dir.join("run.svg");
        assert!(run.save_clog(&clog_path).unwrap());
        assert!(run.save_slog(&slog_path).unwrap());
        assert!(run.render_to_file(&svg_path, 640).unwrap());
        let slog_back = Slog2File::read_from(&slog_path).unwrap();
        assert_eq!(&slog_back, run.slog.as_ref().unwrap());
        assert!(std::fs::read_to_string(&svg_path).unwrap().contains("<svg"));
    }
}
