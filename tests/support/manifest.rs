//! A purpose-built minimal scanner for the hermetic-build policy over
//! `Cargo.toml` text (a TOML crate would itself break the policy). Every
//! dependency must be a `path`-based workspace crate, and no package may
//! run a build script.

/// Dependency sections in which every entry must be path-based.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "workspace.dependencies",
];

/// One `name = ...` entry under a dependency section.
#[derive(Debug)]
pub struct DepEntry {
    pub line_no: usize,
    pub name: String,
    pub spec: String,
}

impl DepEntry {
    /// A dependency is hermetic if it points into the workspace by path or
    /// defers to `[workspace.dependencies]` (whose entries are themselves
    /// checked).
    pub fn is_hermetic(&self) -> bool {
        (self.spec.contains("path") && self.spec.contains("=")
            && spec_field(&self.spec, "path").is_some())
            || self.name.ends_with(".workspace")
            || spec_field(&self.spec, "workspace") == Some("true".to_string())
    }

    /// The `path = "..."` target, if any.
    pub fn path_target(&self) -> Option<String> {
        spec_field(&self.spec, "path")
    }
}

/// Extracts `key = value` from an inline table spec like
/// `{ path = "crates/sim", optional = true }`; string values are unquoted.
fn spec_field(spec: &str, key: &str) -> Option<String> {
    let body = spec.trim().strip_prefix('{')?.strip_suffix('}')?;
    for part in body.split(',') {
        let (k, v) = part.split_once('=')?;
        if k.trim() == key {
            let v = v.trim();
            return Some(v.trim_matches('"').to_string());
        }
    }
    None
}

/// `raw` with its comment stripped — good enough for our manifests, which
/// never put '#' inside a string.
fn code(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

/// Every dependency entry of one manifest's text, or the line number and
/// text of the first dependency line that does not parse.
pub fn dependencies(text: &str) -> Result<Vec<DepEntry>, (usize, String)> {
    let mut entries = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = code(raw);
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if !DEP_SECTIONS.contains(&section.as_str()) {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            return Err((i + 1, line.to_string()));
        };
        entries.push(DepEntry {
            line_no: i + 1,
            name: name.trim().to_string(),
            spec: spec.trim().to_string(),
        });
    }
    Ok(entries)
}

/// The `[build-dependencies]` headers and `build = ...` keys of one
/// manifest's text, as `(line, line text)`.
pub fn build_script_lines(text: &str) -> Vec<(usize, String)> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = code(raw);
        let key = line.split_once('=').map(|(k, _)| k.trim());
        if line.starts_with("[build-dependencies") || key == Some("build") {
            lines.push((i + 1, line.to_string()));
        }
    }
    lines
}

/// Every breach of the policy in one manifest's text, as `(line, message)`
/// in line order.
pub fn violations(text: &str) -> Vec<(usize, String)> {
    let mut found = match dependencies(text) {
        Ok(deps) => deps
            .into_iter()
            .filter(|dep| !dep.is_hermetic())
            .map(|dep| {
                let message =
                    format!("`{} = {}` is not a path-based workspace dependency", dep.name, dep.spec);
                (dep.line_no, message)
            })
            .collect(),
        Err((line, text)) => vec![(line, format!("unparsable dependency line {text:?}"))],
    };
    found.extend(build_script_lines(text).into_iter().map(|(line, text)| (line, format!("build script: {text}"))));
    found.sort();
    found
}
