//! The diagnostic vocabulary: codes, severities, sites, and rendering.

use std::fmt;

use xsfq_netlist::writers::json_escape;

/// How bad a finding is.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Severity {
    /// The structure cannot be implemented in hardware; flows must fail.
    Error,
    /// Legal but wasteful or suspicious; flows may proceed.
    Warning,
}

impl Severity {
    /// Stable lowercase name (JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Stable lint codes. `X0xx` are errors, `W1xx` are warnings; the full
/// catalog with motivations lives in the [crate docs](crate).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // the variants are documented in the crate-level catalog
pub enum Code {
    X001,
    X002,
    X003,
    X004,
    X005,
    X006,
    X007,
    X008,
    X009,
    X010,
    X011,
    W101,
    W102,
}

impl Code {
    /// The code's stable string form (`"X001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::X001 => "X001",
            Code::X002 => "X002",
            Code::X003 => "X003",
            Code::X004 => "X004",
            Code::X005 => "X005",
            Code::X006 => "X006",
            Code::X007 => "X007",
            Code::X008 => "X008",
            Code::X009 => "X009",
            Code::X010 => "X010",
            Code::X011 => "X011",
            Code::W101 => "W101",
            Code::W102 => "W102",
        }
    }

    /// Severity class implied by the code family.
    pub fn severity(self) -> Severity {
        match self {
            Code::W101 | Code::W102 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic points at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Site {
    /// The design as a whole (cross-cutting findings).
    Design,
    /// A net, by index.
    Net(usize),
    /// A cell instance, by index.
    Cell(usize),
    /// A named port.
    Port(String),
    /// An AIG node, by index.
    Node(usize),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Design => f.write_str("design"),
            Site::Net(i) => write!(f, "net {i}"),
            Site::Cell(i) => write!(f, "cell {i}"),
            Site::Port(name) => write!(f, "port `{name}`"),
            Site::Node(i) => write!(f, "node {i}"),
        }
    }
}

/// One finding: a stable code, its severity, a human-readable message and
/// the structure it points at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diag {
    /// Stable lint code.
    pub code: Code,
    /// Severity (derived from the code family).
    pub severity: Severity,
    /// Human-readable description of this particular finding.
    pub message: String,
    /// The structure the finding anchors to.
    pub site: Site,
}

impl Diag {
    /// A diagnostic for `code` at `site`; severity follows the code.
    pub fn new(code: Code, site: Site, message: impl Into<String>) -> Diag {
        Diag {
            code,
            severity: code.severity(),
            message: message.into(),
            site,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.severity.name(),
            self.code,
            self.message,
            self.site
        )
    }
}

/// Whether any diagnostic in the slice is an error.
pub fn has_errors(diags: &[Diag]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render diagnostics one per line, in the [`Diag`] `Display` form.
pub fn render_text(diags: &[Diag]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render diagnostics as a JSON array (schema `xsfq-lint-diags/1`
/// elements): `{"code", "severity", "message", "site": {"kind", ...}}`.
pub fn render_json(diags: &[Diag]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"site\":{}}}",
            d.code,
            d.severity.name(),
            json_escape(&d.message),
            site_json(&d.site)
        ));
    }
    out.push(']');
    out
}

fn site_json(site: &Site) -> String {
    match site {
        Site::Design => "{\"kind\":\"design\"}".into(),
        Site::Net(i) => format!("{{\"kind\":\"net\",\"index\":{i}}}"),
        Site::Cell(i) => format!("{{\"kind\":\"cell\",\"index\":{i}}}"),
        Site::Port(name) => format!("{{\"kind\":\"port\",\"name\":\"{}\"}}", json_escape(name)),
        Site::Node(i) => format!("{{\"kind\":\"node\",\"index\":{i}}}"),
    }
}

/// How much static checking the synthesis flow runs.
///
/// Lives here (not in `xsfq-core`) so the daemon, the flow and the CLI all
/// share one vocabulary without depending on the flow crate.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum CheckLevel {
    /// No checking — byte-for-byte the pre-lint flow, at zero cost.
    #[default]
    Off,
    /// Validate the AIG after the optimize stage and DRC both mapped
    /// netlists after the map stage. Costs on the order of one
    /// `NetlistStats` pass per stage.
    Stage,
    /// Everything `Stage` does, plus an AIG validation after every
    /// optimization pass and a cut-arena integrity audit after the script.
    /// Meant for debugging passes, not production.
    Paranoid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let diags = vec![
            Diag::new(Code::X001, Site::Cell(3), "input pin 1 is unconnected"),
            Diag::new(Code::W101, Site::Port("a\"b".into()), "dead"),
        ];
        assert_eq!(
            render_text(&diags),
            "error[X001]: input pin 1 is unconnected (at cell 3)\n\
             warning[W101]: dead (at port `a\"b`)\n"
        );
        let json = render_json(&diags);
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"code\":\"X001\""), "{json}");
        assert!(json.contains("\"kind\":\"cell\",\"index\":3"), "{json}");
        assert!(json.contains("a\\\"b"), "{json}");
        assert!(has_errors(&diags));
        assert!(!has_errors(&diags[1..]));
    }

    #[test]
    fn check_levels_are_ordered() {
        assert!(CheckLevel::Off < CheckLevel::Stage);
        assert!(CheckLevel::Stage < CheckLevel::Paranoid);
        assert_eq!(CheckLevel::default(), CheckLevel::Off);
    }
}
