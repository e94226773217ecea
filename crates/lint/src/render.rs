//! Machine-readable output rendering, shared by the CLI and tests.
//!
//! JSON strings escape quotes, backslashes, and all control
//! characters (so a finding whose message quotes source text — or a
//! path with unusual bytes — can never emit invalid JSON); GitHub
//! workflow-command properties and messages use the `%`-encoding the
//! Actions runner expects for `%`, `\r`, `\n` (plus `:`/`,` in
//! properties).

use crate::rules::Finding;

/// Escape `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The findings as a JSON array (`[]` when empty) — one object per
/// finding with `path`/`line`/`col`/`rule`/`severity`/`message`
/// (every finding is an error; the key stays for consumers).
pub fn to_json(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "[]".to_string();
    }
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "  {{\"path\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"severity\":\"error\",\"message\":\"{}\"}}",
                json_escape(&f.path),
                f.line,
                f.col,
                f.rule.name(),
                json_escape(&f.msg)
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

/// Escape a workflow-command message (data after `::`).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escape a workflow-command property value (`file=`, `title=`, …).
fn github_escape_property(s: &str) -> String {
    github_escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// One GitHub workflow annotation command — rendered inline on the PR
/// diff when printed from a CI step.
pub fn github_annotation(f: &Finding) -> String {
    format!(
        "::error file={},line={},col={},title=teleios-lint {}::{}",
        github_escape_property(&f.path),
        f.line,
        f.col,
        f.rule.name(),
        github_escape_data(&f.msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(path: &str, msg: &str) -> Finding {
        Finding {
            path: path.to_string(),
            line: 3,
            col: 7,
            rule: Rule::NoRelaxed,
            msg: msg.to_string(),
        }
    }

    #[test]
    fn json_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc\r"), r"a\nb\tc\r");
        assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn json_array_shape_and_content() {
        assert_eq!(to_json(&[]), "[]");
        let out = to_json(&[finding("crates\\x\\src/lib.rs", "uses \"quotes\"")]);
        assert!(out.starts_with("[\n"));
        assert!(out.ends_with("\n]"));
        assert!(out.contains(r#""path":"crates\\x\\src/lib.rs""#), "{out}");
        assert!(out.contains(r#""message":"uses \"quotes\"""#), "{out}");
        assert!(out.contains(r#""rule":"no-relaxed""#));
        assert!(out.contains(r#""severity":"error""#));
        assert!(out.contains(r#""line":3"#));
        assert!(out.contains(r#""col":7"#));
    }

    #[test]
    fn json_rows_join_with_commas() {
        let out = to_json(&[finding("a.rs", "one"), finding("b.rs", "two")]);
        assert_eq!(out.matches("},\n").count(), 1, "{out}");
    }

    #[test]
    fn github_annotation_escapes_message_and_path() {
        let out = github_annotation(&finding("a.rs", "50% done\nnext"));
        assert_eq!(
            out,
            "::error file=a.rs,line=3,col=7,title=teleios-lint no-relaxed::50%25 done%0Anext"
        );
        let out = github_annotation(&finding("odd,name:x.rs", "m"));
        assert!(out.contains("file=odd%2Cname%3Ax.rs"), "{out}");
    }
}
