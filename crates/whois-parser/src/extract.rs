//! Mechanical value extraction from labeled lines.
//!
//! Once the CRF has identified *what* each line is, pulling the value out
//! is mechanical: split at the first separator and take the right side (or
//! the whole line in label-free block formats). The keyword heuristics
//! here only ever run *within* an already-labeled block — the CRF does
//! the hard part.

use whois_model::{BlockLabel, Contact, Label, ParsedRecord, RegistrantLabel};
use whois_tokenize::split_title_value;

/// Split a `[Title] value` line (the bracketed JP-registry convention,
/// which has no separator character).
fn split_bracketed(line: &str) -> Option<(&str, &str)> {
    let t = line.trim_start();
    let rest = t.strip_prefix('[')?;
    let close = rest.find(']')?;
    Some((&rest[..close], &rest[close + 1..]))
}

/// One split per line: its trimmed title and value sides. The title is
/// `""` (and the value the whole trimmed line) when there is neither a
/// leading `[Title]` nor a separator.
fn split_line(line: &str) -> (&str, &str) {
    if let Some((t, v)) = split_bracketed(line) {
        return (t.trim(), v.trim());
    }
    match split_title_value(line) {
        Some((t, v, _)) => (t.trim(), v.trim()),
        None => ("", line.trim()),
    }
}

/// The value side of a line: text after the first separator (or after a
/// leading `[Title]`), or the whole trimmed line when there is none.
pub fn value_of(line: &str) -> &str {
    split_line(line).1
}

/// The title side of a line, lower-cased, or `""` when there is no
/// separator.
pub fn title_of(line: &str) -> String {
    split_line(line).0.to_lowercase()
}

/// `title` lower-cased into `buf`, which one [`assemble`] call reuses
/// for every line; ASCII titles (nearly all) skip the Unicode tables.
fn lower_into<'a>(title: &str, buf: &'a mut String) -> &'a str {
    buf.clear();
    if title.is_ascii() {
        buf.push_str(title);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&title.to_lowercase());
    }
    buf
}

fn title_has(title: &str, words: &[&str]) -> bool {
    words.iter().any(|w| title.contains(w))
}

/// Word-exact title membership (avoids `"id"` matching inside
/// `"provider"`).
fn title_has_word(title: &str, words: &[&str]) -> bool {
    title
        .split(|c: char| !c.is_alphanumeric())
        .any(|tok| words.contains(&tok))
}

/// Assemble a [`ParsedRecord`] from first-level labels and second-level
/// registrant labels.
///
/// `lines` and `blocks` must align; `registrant` pairs each
/// registrant-block line (in order) with its sub-field label.
pub fn assemble(
    domain: &str,
    lines: &[&str],
    blocks: &[BlockLabel],
    registrant: &[(String, RegistrantLabel)],
) -> ParsedRecord {
    assert_eq!(lines.len(), blocks.len(), "labels must align with lines");
    let mut out = ParsedRecord::new(domain);
    // Lines bucket per label index and enter `out.blocks` once at the
    // end: one map insert per block instead of a keyed walk per line.
    let mut buckets: [Vec<String>; BlockLabel::COUNT] = Default::default();
    let mut title = String::new();

    for (&line, &label) in lines.iter().zip(blocks) {
        buckets[label.index()].push(line.to_string());
        match label {
            BlockLabel::Registrar => {
                let (t, v) = split_line(line);
                if v.is_empty() {
                    continue;
                }
                let t = lower_into(t, &mut title);
                if title_has(t, &["whois", "server"]) && !title_has(t, &["url"]) {
                    if out.whois_server.is_none() && v.contains('.') && !v.contains(' ') {
                        out.whois_server = Some(v.to_string());
                    }
                } else if title_has(t, &["registrar", "sponsor", "provider", "sponsoring"])
                    && !title_has_word(t, &["id", "url", "abuse", "iana"])
                    && out.registrar.is_none()
                {
                    out.registrar = Some(v.to_string());
                }
            }
            BlockLabel::Domain => {
                let (t, v) = split_line(line);
                if v.is_empty() {
                    continue;
                }
                let t = lower_into(t, &mut title);
                if title_has(t, &["server", "nserver", "host", "dns", "nameserver"]) {
                    if v.contains('.') && !v.contains(' ') {
                        out.name_servers.push(v.to_lowercase());
                    }
                } else if title_has(t, &["status"]) {
                    out.statuses.push(v.to_string());
                } else if v.contains('.') && !v.contains(' ') && t.is_empty() {
                    // Bare name-server lines under a "Domain servers" header.
                    let lc = v.to_lowercase();
                    if lc.starts_with("ns") || lc.split('.').count() >= 3 {
                        out.name_servers.push(lc);
                    }
                }
            }
            BlockLabel::Date => {
                let (t, v) = split_line(line);
                if v.is_empty() || whois_model::parse_year(v).is_none() {
                    continue;
                }
                let t = lower_into(t, &mut title);
                // Expiry first: "Registrar Registration Expiration Date"
                // contains "registration" but is an expiry date.
                if title_has(t, &["expir", "renew", "valid"]) {
                    if out.expires.is_none() {
                        out.expires = Some(v.to_string());
                    }
                } else if title_has(t, &["creat", "registered", "registration", "activat"]) {
                    if out.created.is_none() {
                        out.created = Some(v.to_string());
                    }
                } else if title_has(t, &["updat", "modif", "changed", "touched"])
                    && out.updated.is_none()
                {
                    out.updated = Some(v.to_string());
                }
            }
            BlockLabel::Registrant | BlockLabel::Other | BlockLabel::Null => {}
        }
    }
    for (label, bucket) in BlockLabel::ALL.iter().zip(buckets) {
        if !bucket.is_empty() {
            out.blocks.insert(label.name().to_string(), bucket);
        }
    }

    if !registrant.is_empty() {
        let mut c = Contact::default();
        for (line, label) in registrant {
            if *label == RegistrantLabel::Other {
                continue;
            }
            c.set_field(*label, value_of(line));
        }
        if !c.is_empty() {
            out.registrant = Some(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_extraction_handles_separators() {
        assert_eq!(value_of("Registrar: GoDaddy.com, LLC"), "GoDaddy.com, LLC");
        assert_eq!(value_of("Expires on..........2016-05-01"), "2016-05-01");
        assert_eq!(value_of("   Just A Value   "), "Just A Value");
        assert_eq!(value_of("domain\texample.com"), "example.com");
    }

    #[test]
    fn title_extraction() {
        assert_eq!(title_of("Registrant Name: X"), "registrant name");
        assert_eq!(title_of("no separator here"), "");
    }

    fn labels(kinds: &[BlockLabel]) -> Vec<BlockLabel> {
        kinds.to_vec()
    }

    #[test]
    fn assemble_extracts_domain_level_fields() {
        use BlockLabel::*;
        let lines = vec![
            "Registrar: eNom, Inc.",
            "Registrar WHOIS Server: whois.enom.com",
            "Creation Date: 2011-08-09T00:00:00Z",
            "Registry Expiry Date: 2016-08-09",
            "Updated Date: 2014-01-01",
            "Name Server: ns1.example.com",
            "Domain Status: clientTransferProhibited",
            "legal text",
        ];
        let blocks = labels(&[Registrar, Registrar, Date, Date, Date, Domain, Domain, Null]);
        let p = assemble("example.com", &lines, &blocks, &[]);
        assert_eq!(p.registrar.as_deref(), Some("eNom, Inc."));
        assert_eq!(p.whois_server.as_deref(), Some("whois.enom.com"));
        assert_eq!(p.created.as_deref(), Some("2011-08-09T00:00:00Z"));
        assert_eq!(p.expires.as_deref(), Some("2016-08-09"));
        assert_eq!(p.updated.as_deref(), Some("2014-01-01"));
        assert_eq!(p.name_servers, vec!["ns1.example.com"]);
        assert_eq!(p.statuses, vec!["clientTransferProhibited"]);
        assert_eq!(p.creation_year(), Some(2011));
        assert!(!p.has_registrant());
        assert_eq!(p.block_lines(Null), &["legal text".to_string()]);
    }

    #[test]
    fn assemble_builds_registrant_contact() {
        let reg = vec![
            (
                "Registrant Name: John Smith".to_string(),
                RegistrantLabel::Name,
            ),
            (
                "Registrant City: San Diego".to_string(),
                RegistrantLabel::City,
            ),
            (
                "Registrant Email: j@x.org".to_string(),
                RegistrantLabel::Email,
            ),
            ("Registrant:".to_string(), RegistrantLabel::Other),
        ];
        let p = assemble("x.com", &[], &[], &reg);
        let c = p.registrant.unwrap();
        assert_eq!(c.name.as_deref(), Some("John Smith"));
        assert_eq!(c.city.as_deref(), Some("San Diego"));
        assert_eq!(c.email.as_deref(), Some("j@x.org"));
    }

    #[test]
    fn bare_nameserver_lines_collected() {
        use BlockLabel::*;
        let lines = vec![
            "   Domain servers in listed order:",
            "      ns1.foo.com",
            "      ns2.foo.com",
        ];
        let blocks = labels(&[Domain, Domain, Domain]);
        let p = assemble("foo.com", &lines, &blocks, &[]);
        assert_eq!(p.name_servers, vec!["ns1.foo.com", "ns2.foo.com"]);
    }

    #[test]
    fn date_lines_without_years_ignored() {
        use BlockLabel::*;
        let lines = vec!["Created: pending"];
        let p = assemble("x.com", &lines, &labels(&[Date]), &[]);
        assert_eq!(p.created, None);
    }

    #[test]
    fn empty_registrant_block_yields_no_contact() {
        let reg = vec![("Registrant:".to_string(), RegistrantLabel::Other)];
        let p = assemble("x.com", &[], &[], &reg);
        assert!(p.registrant.is_none());
    }
}
