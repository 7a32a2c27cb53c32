//! Report writers: text (with slack histogram), per-endpoint CSV, JSON,
//! and SDC constraints. Formats are documented in the crate docs; all
//! numeric fields use fixed-precision formatting so golden tests can pin
//! outputs byte-for-byte.

use xsfq_netlist::writers::json_escape;
use xsfq_netlist::Netlist;

use crate::analysis::{EndpointKind, TimingAnalysis};
use crate::{json_f64, TimingSummary};

/// Histogram of skew slack (`allowed − skew`) over joins and rail pairs:
/// `(lo, hi, count)` per bin, lowest bin first.
pub fn slack_histogram(analysis: &TimingAnalysis, bins: usize) -> Vec<(f64, f64, usize)> {
    let values: Vec<f64> = analysis
        .joins
        .iter()
        .map(|j| analysis.allowed_skew_ps - j.skew_ps)
        .chain(
            analysis
                .rail_pairs
                .iter()
                .map(|r| analysis.allowed_skew_ps - r.skew_ps),
        )
        .collect();
    if values.is_empty() || bins == 0 {
        return Vec::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / bins as f64).max(1e-12);
    let mut out: Vec<(f64, f64, usize)> = (0..bins)
        .map(|i| (lo + width * i as f64, lo + width * (i + 1) as f64, 0))
        .collect();
    for v in values {
        let b = (((v - lo) / width) as usize).min(bins - 1);
        out[b].2 += 1;
    }
    out
}

/// Human-readable timing report with a 10-bin slack histogram.
pub fn render_report(
    netlist: &Netlist,
    analysis: &TimingAnalysis,
    summary: &TimingSummary,
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "timing report — design '{}' (library {}, balance {}, tolerance {:.2} ps)\n",
        netlist.name(),
        netlist.library().name(),
        summary.balance,
        summary.tolerance_ps,
    ));
    s.push_str(&format!("  levels:           {}\n", analysis.num_levels()));
    s.push_str(&format!(
        "  endpoints:        {}\n",
        analysis.endpoints.len()
    ));
    s.push_str(&format!(
        "  joins:            {} (rail pairs: {})\n",
        analysis.joins.len(),
        analysis.rail_pairs.len()
    ));
    s.push_str(&format!(
        "  critical path:    {:.2} ps\n",
        summary.critical_path_ps
    ));
    s.push_str(&format!(
        "  worst skew:       {:.2} ps (allowed {:.2})\n",
        summary.worst_skew_ps, analysis.allowed_skew_ps
    ));
    s.push_str(&format!(
        "  worst slack:      {:.2} ps\n",
        summary.worst_slack_ps
    ));
    s.push_str(&format!(
        "  buffers inserted: {} (+{} JJ)\n",
        summary.buffers_inserted, summary.jj_delta
    ));
    let hist = slack_histogram(analysis, 10);
    if hist.is_empty() {
        s.push_str("  (no joins or rail pairs to histogram)\n");
        return s;
    }
    s.push_str("  skew slack histogram (ps):\n");
    let peak = hist.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
    for (lo, hi, count) in hist {
        let bar = "#".repeat((count * 40).div_ceil(peak).min(40));
        s.push_str(&format!("  [{lo:8.2}, {hi:8.2}) {count:6} {bar}\n"));
    }
    s
}

/// Per-endpoint CSV: `endpoint,arrival_min_ps,arrival_max_ps,required_ps,slack_ps`.
pub fn render_endpoint_csv(analysis: &TimingAnalysis) -> String {
    let mut s = String::from("endpoint,arrival_min_ps,arrival_max_ps,required_ps,slack_ps\n");
    for e in &analysis.endpoints {
        s.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{:.3}\n",
            csv_field(&e.name),
            e.arrival_min_ps,
            e.arrival_max_ps,
            analysis.critical_path_ps,
            e.slack_ps,
        ));
    }
    s
}

/// JSON report (schema `xsfq-time-report/1`): summary plus an `endpoints`
/// array mirroring the CSV.
pub fn render_json_report(
    netlist: &Netlist,
    analysis: &TimingAnalysis,
    summary: &TimingSummary,
) -> String {
    let mut eps = String::new();
    for (i, e) in analysis.endpoints.iter().enumerate() {
        if i > 0 {
            eps.push(',');
        }
        eps.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"arrival_min_ps\":{},\"arrival_max_ps\":{},\
             \"slack_ps\":{}}}",
            json_escape(&e.name),
            match e.kind {
                EndpointKind::Output => "output",
                EndpointKind::ClockedInput => "clocked_input",
            },
            json_f64(e.arrival_min_ps),
            json_f64(e.arrival_max_ps),
            json_f64(e.slack_ps),
        ));
    }
    format!(
        "{{\"schema\":\"xsfq-time-report/1\",\"design\":\"{}\",\"library\":\"{}\",\
         \"levels\":{},\"joins\":{},\"rail_pairs\":{},\"summary\":{},\"endpoints\":[{}]}}",
        json_escape(netlist.name()),
        json_escape(netlist.library().name()),
        analysis.num_levels(),
        analysis.joins.len(),
        analysis.rail_pairs.len(),
        summary.to_json(),
        eps,
    )
}

/// SDC constraints (dialect `xsfq-time sdc/1`, ps units).
///
/// The analysis result becomes the constraint: a virtual clock `vclk`
/// carries the critical path as its period, and each output port is
/// pinned to its achieved arrival window with `set_max_delay` /
/// `set_min_delay` plus a `set_output_delay` row carrying its slack.
pub fn render_sdc(netlist: &Netlist, analysis: &TimingAnalysis, summary: &TimingSummary) -> String {
    let mut s = String::new();
    s.push_str("# xsfq-time sdc/1\n");
    s.push_str(&format!(
        "# design: {}  library: {}  balance: {}  tolerance_ps: {:.3}\n",
        netlist.name(),
        netlist.library().name(),
        summary.balance,
        summary.tolerance_ps,
    ));
    s.push_str("set_units -time ps\n");
    s.push_str(&format!(
        "create_clock -name vclk -period {:.3}\n",
        summary.critical_path_ps
    ));
    s.push_str(&format!(
        "set_max_delay {:.3} -from [all_inputs] -to [all_outputs]\n",
        summary.critical_path_ps
    ));
    for e in &analysis.endpoints {
        if e.kind != EndpointKind::Output {
            continue;
        }
        s.push_str(&format!(
            "set_max_delay {:.3} -to [get_ports {{{}}}]\n",
            e.arrival_max_ps, e.name
        ));
        s.push_str(&format!(
            "set_min_delay {:.3} -to [get_ports {{{}}}]\n",
            e.arrival_min_ps, e.name
        ));
        s.push_str(&format!(
            "set_output_delay -clock vclk -max {:.3} [get_ports {{{}}}]\n",
            e.slack_ps, e.name
        ));
    }
    s
}

/// Quote a CSV field only when it needs it (commas or quotes).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balance_netlist, TimingOptions};
    use xsfq_cells::{CellKind, CellLibrary};

    fn sample() -> (Netlist, TimingAnalysis, TimingSummary) {
        let mut n = Netlist::new("sample", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let la1 = n.add_cell(CellKind::La, &[a, b])[0];
        let la2 = n.add_cell(CellKind::La, &[la1, c])[0];
        n.add_output("y", la2);
        let out = balance_netlist(&n, &TimingOptions::default(), None);
        (n, out.analysis, out.summary)
    }

    #[test]
    fn csv_has_header_and_one_row_per_endpoint() {
        let (_, analysis, _) = sample();
        let csv = render_endpoint_csv(&analysis);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "endpoint,arrival_min_ps,arrival_max_ps,required_ps,slack_ps"
        );
        assert_eq!(lines.len(), 1 + analysis.endpoints.len());
        assert!(lines[1].starts_with("y,"));
    }

    #[test]
    fn json_report_carries_schema_and_summary() {
        let (n, analysis, summary) = sample();
        let js = render_json_report(&n, &analysis, &summary);
        assert!(js.starts_with("{\"schema\":\"xsfq-time-report/1\""));
        assert!(js.contains("\"balance\":\"full\""));
        assert!(js.contains("\"buffers_inserted\":1"));
        assert!(js.contains("\"kind\":\"output\""));
    }

    /// Design and port names come straight from user netlists (a BLIF
    /// `.model` token can carry a control byte); the report must stay
    /// valid JSON for every one of them.
    #[test]
    fn json_report_escapes_control_bytes_in_names() {
        let mut n = Netlist::new("top\n\u{1}", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let la = n.add_cell(CellKind::La, &[a, b])[0];
        n.add_output("y\"\n\u{1}", la);
        let out = balance_netlist(&n, &TimingOptions::default(), None);
        let js = render_json_report(&n, &out.analysis, &out.summary);
        assert!(js.contains("\"design\":\"top\\n\\u0001\""), "{js}");
        assert!(js.contains("\"name\":\"y\\\"\\n\\u0001\""), "{js}");
        assert!(
            !js.chars().any(|c| (c as u32) < 0x20),
            "raw control byte in JSON: {js:?}"
        );
    }

    #[test]
    fn sdc_pins_the_achieved_window() {
        let (n, analysis, summary) = sample();
        let sdc = render_sdc(&n, &analysis, &summary);
        assert!(sdc.starts_with("# xsfq-time sdc/1\n"));
        assert!(sdc.contains("set_units -time ps"));
        assert!(sdc.contains("create_clock -name vclk -period 14.400"));
        assert!(sdc.contains("set_max_delay 14.400 -to [get_ports {y}]"));
        assert!(sdc.contains("set_output_delay -clock vclk -max 0.000 [get_ports {y}]"));
    }

    #[test]
    fn report_text_and_histogram_render() {
        let (n, analysis, summary) = sample();
        let txt = render_report(&n, &analysis, &summary);
        assert!(txt.contains("design 'sample'"));
        assert!(txt.contains("buffers inserted: 1 (+2 JJ)"));
        assert!(txt.contains("skew slack histogram"));
        let hist = slack_histogram(&analysis, 10);
        assert_eq!(hist.iter().map(|&(_, _, c)| c).sum::<usize>(), 2);
    }
}
