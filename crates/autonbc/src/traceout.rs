//! Combined trace-file writer.
//!
//! The observability layer collects two things while `NBC_TRACE` is
//! active: per-rank timeline events (`simcore::trace`) and tuner decision
//! records (`adcl::audit`). This module merges them into one JSON document
//!
//! ```text
//! { "traceEvents":     [ ... ],   // Chrome trace_event format
//!   "adclAudit":       [ ... ],   // one object per committed tuning decision
//!   "adclServed":      [ ... ],   // one object per decision served by adcld
//!   "guidelineFlags":  [ ... ] }  // decisions a guideline probe proves dominated
//! ```
//!
//! which Perfetto / `chrome://tracing` open directly (unknown top-level
//! keys are ignored by viewers) and `trace_inspect` parses for its
//! summary. Figure binaries call [`write_if_requested`] as their last
//! statement: it is a no-op unless tracing is on *and* an output path was
//! given (`NBC_TRACE=<path>` or `--trace-out <path>`), and it reports only
//! to stderr so tuned stdout stays byte-identical to an untraced run.
//!
//! The `guidelineFlags` section is gated by `NBC_GUIDELINES`
//! (`off` | `quick` | `full`, default off → always the empty array): when
//! enabled, each committed decision is re-measured with clean fixed
//! schedules (`adcl::guidelines::cross_check_audit`, memoized, tracing
//! suppressed) and winners left more than 10 % on the table are flagged.

use simcore::trace;

/// Render everything collected so far as one combined JSON document.
/// Drains the timeline collector (worlds publish on drop); audit records
/// are left in place.
pub fn render_combined() -> String {
    let traces = trace::take_all();
    let events = trace::render_trace_events(&traces);
    let audit = adcl::audit::render_json();
    let served = adcl::audit::render_served_json();
    let flags = render_guideline_flags();
    format!(
        "{{\n\"traceEvents\":[\n{events}\n],\n\"adclAudit\":[\n{audit}\n],\
         \n\"adclServed\":[\n{served}\n],\
         \n\"guidelineFlags\":[\n{flags}\n]\n}}\n"
    )
}

/// Cross-check the collected audit records per the `NBC_GUIDELINES` mode
/// and render the flag list (empty string when off or nothing flagged).
fn render_guideline_flags() -> String {
    use adcl::guidelines;
    let mode = guidelines::mode();
    if mode == guidelines::Mode::Off {
        return String::new();
    }
    let records = adcl::audit::records();
    let flags = guidelines::cross_check_audit(&records, guidelines::FLAG_TOLERANCE, mode.cap());
    guidelines::render_flags_json(&flags)
}

/// Write the combined document to `path`.
pub fn write_to(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_combined())
}

/// Write the combined document to the configured output path, if any.
/// Figure binaries call this once, after all experiments have run. Status
/// goes to stderr; stdout is never touched.
pub fn write_if_requested() {
    if !trace::enabled() {
        return;
    }
    let Some(path) = trace::out_path() else {
        return;
    };
    let runs = trace::collected_runs();
    let audits = adcl::audit::len();
    let dropped = trace::dropped_runs();
    match write_to(&path) {
        Ok(()) => {
            eprintln!("trace: wrote {runs} run(s), {audits} audit record(s) to {path}");
            if dropped > 0 {
                eprintln!("trace: {dropped} run(s) dropped (global event cap reached)");
            }
        }
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_document_parses_when_empty() {
        // Whatever other tests have published, the document must be valid
        // JSON with both arrays present.
        let doc = render_combined();
        let parsed = simcore::json::parse(&doc).expect("combined doc parses");
        assert!(parsed.get("traceEvents").and_then(|v| v.as_arr()).is_some());
        assert!(parsed.get("adclAudit").and_then(|v| v.as_arr()).is_some());
        assert!(parsed.get("adclServed").and_then(|v| v.as_arr()).is_some());
        assert!(parsed
            .get("guidelineFlags")
            .and_then(|v| v.as_arr())
            .is_some());
    }

    #[test]
    fn guideline_flags_empty_when_off() {
        adcl::guidelines::set_mode_override(Some(adcl::guidelines::Mode::Off));
        let doc = render_combined();
        let parsed = simcore::json::parse(&doc).expect("parses");
        let flags = parsed
            .get("guidelineFlags")
            .and_then(|v| v.as_arr())
            .expect("flags array present");
        assert!(flags.is_empty(), "off mode must export an empty flag list");
        adcl::guidelines::set_mode_override(None);
    }
}
