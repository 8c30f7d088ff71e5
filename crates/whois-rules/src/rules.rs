//! The rule-based parser (§4.2) with rollback (§5.1).
//!
//! The parser works exactly as the paper describes its ground-truth
//! labeler: line-granularity tokens, common separators splitting `title:
//! value` pairs, contextual headers ("a field title appears alone with the
//! following block representing the associated value"), and an ordered
//! table of keyword rules accreted "until \[it\] was able to completely
//! label the entries in our test corpus".
//!
//! For the Figure 2/3 comparison the paper "rolls back" the rule base,
//! "retaining only those rules that are necessary to label the WHOIS
//! records in these smaller subsets" — [`RuleBasedParser::fit`] implements
//! that: run the full parser over the training subset and keep only the
//! keyword rules that correctly decided at least one training line.
//! Structural rules (separators, context propagation, symbol/boilerplate
//! handling) "cannot be rolled back" and are always retained.

use whois_model::{BlockLabel, Contact, ErrorStats, ParsedRecord, RawRecord, RegistrantLabel};
use whois_tokenize::markers::indent_of;
use whois_tokenize::{split_title_value, word_classes, WordClass};

/// Identifier of a keyword rule (index into the static rule table).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuleId(pub usize);

/// What a keyword rule matches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    /// A header line (empty value side): sets the context block.
    Header,
    /// The `Contact Type: <block>` discriminator (registry dump formats).
    ContactType,
    /// A titled line whose title contains the keyword.
    Titled,
    /// A titled contact-field line (Name/Phone/...) that inherits the
    /// current context block.
    TitledContact,
}

/// One keyword rule.
#[derive(Copy, Clone, Debug)]
struct Rule {
    kind: Kind,
    keyword: &'static str,
    /// Label assigned (ignored for `TitledContact`/`ContactType`).
    label: BlockLabel,
}

/// The full, ordered rule table. First match wins; order encodes the
/// special-case priority accreted during development (dates before
/// registrar so "Registrar Registration Expiration Date" is a date;
/// admin/tech before registrant so "Admin Name" is not a registrant; …).
const RULES: &[Rule] = &[
    // --- Headers (empty value side) ---
    Rule {
        kind: Kind::Header,
        keyword: "administrative contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Header,
        keyword: "admin contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Header,
        keyword: "technical contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Header,
        keyword: "tech contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Header,
        keyword: "billing contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Header,
        keyword: "registrant",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Header,
        keyword: "owner contact",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Header,
        keyword: "owner",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Header,
        keyword: "holder",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Header,
        keyword: "domain servers",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Header,
        keyword: "name servers",
        label: BlockLabel::Domain,
    },
    // --- Contact-type discriminator ---
    Rule {
        kind: Kind::ContactType,
        keyword: "contact type",
        label: BlockLabel::Other,
    },
    // --- Titled: other contacts before registrant ---
    Rule {
        kind: Kind::Titled,
        keyword: "admin",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "technical",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "tech",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "billing",
        label: BlockLabel::Other,
    },
    // --- Titled: dates before registrar/domain ---
    Rule {
        kind: Kind::Titled,
        keyword: "creation",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "created",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "expir",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "expires",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "updated",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "update time",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "modified",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "changed",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "registered on",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "registration date",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "registration time",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "valid until",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "renewal",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "activated",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "touched",
        label: BlockLabel::Date,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "last update",
        label: BlockLabel::Date,
    },
    // --- Titled: registrar ---
    Rule {
        kind: Kind::Titled,
        keyword: "whois server",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "whois-server",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "referral",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "abuse",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "registrar",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "sponsoring",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "sponsor",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "provider",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "reseller",
        label: BlockLabel::Registrar,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "iana",
        label: BlockLabel::Registrar,
    },
    // --- Titled: registrant ---
    Rule {
        kind: Kind::Titled,
        keyword: "registrant",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "owner",
        label: BlockLabel::Registrant,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "holder",
        label: BlockLabel::Registrant,
    },
    // --- Titled: domain (before generic contact fields so "Domain Name" is not a name) ---
    Rule {
        kind: Kind::Titled,
        keyword: "domain",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "name server",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "nameserver",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "nserver",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "ns0",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "ns1",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "status",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "dnssec",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "host",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "dns",
        label: BlockLabel::Domain,
    },
    Rule {
        kind: Kind::Titled,
        keyword: "punycode",
        label: BlockLabel::Domain,
    },
    // --- Titled: generic contact fields (inherit context) ---
    Rule {
        kind: Kind::TitledContact,
        keyword: "contact",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "name",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "organisation",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "organization",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "address",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "street",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "city",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "state",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "province",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "postal",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "zip",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "country",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "phone",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "voice",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "telephone",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "fax",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "facsimile",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "email",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "e-mail",
        label: BlockLabel::Other,
    },
    Rule {
        kind: Kind::TitledContact,
        keyword: "mail",
        label: BlockLabel::Other,
    },
];

/// Split the line, recognizing both separators and the `[Title] value`
/// bracket convention.
fn split_line(line: &str) -> (String, String) {
    let trimmed = line.trim_start();
    if let Some(rest) = trimmed.strip_prefix('[') {
        if let Some(close) = rest.find(']') {
            return (
                rest[..close].trim().to_lowercase(),
                rest[close + 1..].trim().to_string(),
            );
        }
    }
    match split_title_value(line) {
        Some((t, v, _)) => (t.trim().to_lowercase(), v.trim().to_string()),
        None => (String::new(), line.trim().to_string()),
    }
}

fn block_for_contact_type(value: &str) -> BlockLabel {
    let v = value.to_lowercase();
    if v.contains("registrant") || v.contains("owner") || v.contains("holder") {
        BlockLabel::Registrant
    } else {
        BlockLabel::Other
    }
}

/// The rule-based parser: the full rule table plus an enabled mask.
#[derive(Clone, Debug)]
pub struct RuleBasedParser {
    enabled: Vec<bool>,
}

impl Default for RuleBasedParser {
    fn default() -> Self {
        Self::full()
    }
}

impl RuleBasedParser {
    /// The complete parser with every rule enabled (the paper's
    /// ground-truth labeler).
    pub fn full() -> Self {
        RuleBasedParser {
            enabled: vec![true; RULES.len()],
        }
    }

    /// Roll back to the rules needed for a training subset: run the full
    /// parser over the examples and keep a keyword rule only if it decided
    /// at least one line *correctly* (§5.1's handicapping).
    ///
    /// `examples` pairs record text with gold labels for its non-empty
    /// lines.
    pub fn fit(examples: &[(String, Vec<BlockLabel>)]) -> Self {
        let full = Self::full();
        let mut needed = vec![false; RULES.len()];
        for (text, gold) in examples {
            let decisions = full.label_with_rules(text);
            assert_eq!(decisions.len(), gold.len(), "gold labels misaligned");
            for ((label, rule), &g) in decisions.iter().zip(gold) {
                if let Some(RuleId(i)) = rule {
                    if *label == g {
                        needed[*i] = true;
                    }
                }
            }
        }
        RuleBasedParser { enabled: needed }
    }

    /// Number of enabled keyword rules.
    pub fn enabled_rules(&self) -> usize {
        self.enabled.iter().filter(|&&b| b).count()
    }

    /// Total keyword rules in the table.
    pub fn total_rules(&self) -> usize {
        RULES.len()
    }

    /// Label the non-empty lines of `text`.
    pub fn label_blocks(&self, text: &str) -> Vec<BlockLabel> {
        self.label_with_rules(text)
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    /// Label lines, reporting which keyword rule (if any) decided each.
    fn label_with_rules(&self, text: &str) -> Vec<(BlockLabel, Option<RuleId>)> {
        let mut out = Vec::new();
        let mut context: Option<BlockLabel> = None;
        let mut prev_blank = false;
        for line in text.lines() {
            if !line.chars().any(|c| c.is_alphanumeric()) {
                prev_blank = true;
                continue;
            }
            if prev_blank {
                context = None;
            }
            prev_blank = false;
            let (label, rule, new_context) = self.classify(line, context);
            if let Some(c) = new_context {
                context = Some(c);
            } else if rule.is_some() && matches!(RULES[rule.unwrap().0].kind, Kind::Titled) {
                // A confidently titled line of another block ends a
                // contextual run.
                context = None;
            }
            out.push((label, rule));
        }
        out
    }

    /// Classify one line. Returns (label, deciding keyword rule, context
    /// update).
    fn classify(
        &self,
        line: &str,
        context: Option<BlockLabel>,
    ) -> (BlockLabel, Option<RuleId>, Option<BlockLabel>) {
        let (title, value) = split_line(line);

        // Keyword rules over titled lines.
        if !title.is_empty() {
            for (i, rule) in RULES.iter().enumerate() {
                if !self.enabled[i] {
                    continue;
                }
                match rule.kind {
                    Kind::Header => {
                        if value.is_empty() && title.contains(rule.keyword) {
                            return (rule.label, Some(RuleId(i)), Some(rule.label));
                        }
                    }
                    Kind::ContactType => {
                        if !value.is_empty() && title.contains(rule.keyword) {
                            let block = block_for_contact_type(&value);
                            return (block, Some(RuleId(i)), Some(block));
                        }
                    }
                    Kind::Titled => {
                        if !value.is_empty() && title.contains(rule.keyword) {
                            return (rule.label, Some(RuleId(i)), None);
                        }
                    }
                    Kind::TitledContact => {
                        if !value.is_empty() && title.contains(rule.keyword) {
                            let label = context.unwrap_or(BlockLabel::Other);
                            return (label, Some(RuleId(i)), None);
                        }
                    }
                }
            }
            // Titled but unknown: header-shaped lines (no value) extend
            // nothing; fall through to the structural defaults.
            if value.is_empty() {
                return (context.unwrap_or(BlockLabel::Null), None, None);
            }
            return (context.unwrap_or(BlockLabel::Null), None, None);
        }

        // Bare header lines (no separator at all): "Registrant",
        // "Owner contact", ... — still keyword rules, subject to rollback.
        let bare = value.to_lowercase();
        let word_count = bare.split_whitespace().count();
        if word_count <= 3 {
            for (i, rule) in RULES.iter().enumerate() {
                if !self.enabled[i] || rule.kind != Kind::Header {
                    continue;
                }
                if bare == rule.keyword || bare.trim_end_matches(':') == rule.keyword {
                    return (rule.label, Some(RuleId(i)), Some(rule.label));
                }
            }
        }

        // Structural rules (never rolled back).
        if line
            .trim_start()
            .starts_with(|c: char| !c.is_alphanumeric())
        {
            // Symbol-leading banner.
            return (BlockLabel::Null, None, None);
        }
        if let Some(c) = context {
            if indent_of(line) > 0 {
                return (c, None, None);
            }
        }
        let classes = word_classes(&bare);
        if classes.contains(&WordClass::DomainName) && word_count == 1 {
            return (context.unwrap_or(BlockLabel::Domain), None, None);
        }
        if let Some(c) = context {
            // Unindented continuation immediately under a header.
            if classes.contains(&WordClass::Email)
                || classes.contains(&WordClass::Phone)
                || classes.contains(&WordClass::Country)
                || word_count <= 6
            {
                return (c, None, None);
            }
        }
        (BlockLabel::Null, None, None)
    }

    /// Evaluate block-label accuracy on examples (Figures 2–3 metrics).
    pub fn evaluate(&self, examples: &[(String, Vec<BlockLabel>)]) -> ErrorStats {
        let mut stats = ErrorStats::default();
        for (text, gold) in examples {
            let pred = self.label_blocks(text);
            assert_eq!(pred.len(), gold.len(), "evaluation misalignment");
            let errors = pred.iter().zip(gold).filter(|(p, g)| p != g).count();
            stats.record(gold.len(), errors);
        }
        stats
    }

    /// Parse a record into structured form (registrant sub-fields by
    /// title keywords and word classes).
    pub fn parse(&self, record: &RawRecord) -> ParsedRecord {
        let lines: Vec<&str> = record.lines();
        let blocks = self.label_blocks(&record.text);
        let mut out = ParsedRecord::new(record.domain.clone());
        let mut contact = Contact::default();
        for (&line, &label) in lines.iter().zip(&blocks) {
            out.push_block_line(label, line);
            let (title, value) = split_line(line);
            match label {
                BlockLabel::Registrar => {
                    if out.registrar.is_none()
                        && !value.is_empty()
                        && (title.contains("registrar")
                            || title.contains("provider")
                            || title.contains("sponsor"))
                        && !title.contains("whois")
                        && !title.contains("abuse")
                        && !title.contains("iana")
                        && !title.contains("url")
                    {
                        out.registrar = Some(value.clone());
                    }
                    if out.whois_server.is_none() && title.contains("whois") {
                        out.whois_server = Some(value.clone());
                    }
                }
                BlockLabel::Date if whois_model::parse_year(&value).is_some() => {
                    // Expiry first: "Registration Expiration Date" contains
                    // "registration" but is an expiry.
                    if (title.contains("expir")
                        || title.contains("valid")
                        || title.contains("renewal"))
                        && out.expires.is_none()
                    {
                        out.expires = Some(value.clone());
                    } else if (title.contains("creat")
                        || title.contains("registered")
                        || title.contains("registration")
                        || title.contains("activated"))
                        && out.created.is_none()
                    {
                        out.created = Some(value.clone());
                    }
                }
                BlockLabel::Registrant => {
                    if let Some(l) = registrant_field_for(&title, &value) {
                        contact.set_field(l, &value);
                    }
                }
                _ => {}
            }
        }
        if !contact.is_empty() {
            out.registrant = Some(contact);
        }
        out
    }
}

/// Keyword/class sub-field assignment within an identified registrant
/// block.
fn registrant_field_for(title: &str, value: &str) -> Option<RegistrantLabel> {
    if value.is_empty() {
        return None;
    }
    if !title.is_empty() {
        let t = title;
        let l = if t.contains("org") || t.contains("company") {
            RegistrantLabel::Org
        } else if t.contains("street") || t.contains("address") {
            RegistrantLabel::Street
        } else if t.contains("city") {
            RegistrantLabel::City
        } else if t.contains("state") || t.contains("province") {
            RegistrantLabel::State
        } else if t.contains("zip") || t.contains("postal") || t.contains("postcode") {
            RegistrantLabel::Postcode
        } else if t.contains("country") {
            RegistrantLabel::Country
        } else if t.contains("fax") || t.contains("facsimile") {
            RegistrantLabel::Fax
        } else if t.contains("phone") || t.contains("voice") || t.contains("telephone") {
            RegistrantLabel::Phone
        } else if t.contains("mail") {
            RegistrantLabel::Email
        } else if t.ends_with("id") {
            RegistrantLabel::Id
        } else if t.contains("name")
            || t.contains("registrant")
            || t.contains("owner")
            || t.contains("holder")
        {
            RegistrantLabel::Name
        } else {
            RegistrantLabel::Other
        };
        return Some(l);
    }
    // Bare lines: classify by content.
    let classes = word_classes(value);
    if classes.contains(&WordClass::Email) {
        Some(RegistrantLabel::Email)
    } else if classes.contains(&WordClass::Phone) {
        Some(RegistrantLabel::Phone)
    } else if classes.contains(&WordClass::Country) {
        Some(RegistrantLabel::Country)
    } else if classes.contains(&WordClass::FiveDigit) || classes.contains(&WordClass::PostcodeLike)
    {
        Some(RegistrantLabel::City) // "City, ST 99999" combined lines
    } else {
        Some(RegistrantLabel::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whois_gen::corpus::{generate_corpus, GenConfig};

    fn examples(seed: u64, n: usize) -> Vec<(String, Vec<BlockLabel>)> {
        generate_corpus(GenConfig::new(seed, n))
            .into_iter()
            .map(|d| (d.rendered.text(), d.block_labels().labels()))
            .collect()
    }

    #[test]
    fn full_parser_is_accurate_on_generated_corpus() {
        let ex = examples(51, 300);
        let parser = RuleBasedParser::full();
        let stats = parser.evaluate(&ex);
        assert!(
            stats.line_error_rate() < 0.02,
            "full rule parser line error {} (the paper's labeler is near-perfect on its corpus)",
            stats.line_error_rate()
        );
    }

    #[test]
    fn classify_titled_lines() {
        let p = RuleBasedParser::full();
        let labels = p.label_blocks(
            "Domain Name: X.COM\nRegistrar: GoDaddy\nCreation Date: 2014-01-01\n\
             Registrant Name: J\nAdmin Name: J\nRegistrar Registration Expiration Date: 2016-01-01",
        );
        use BlockLabel::*;
        assert_eq!(
            labels,
            vec![Domain, Registrar, Date, Registrant, Other, Date]
        );
    }

    #[test]
    fn contextual_blocks_inherit_label() {
        let p = RuleBasedParser::full();
        let labels = p.label_blocks(
            "Registrant:\n   Acme Corp\n   1 Main St\n   San Diego, CA 92093\n\n\
             Administrative Contact:\n   Jane Roe\n   jane@x.org",
        );
        use BlockLabel::*;
        assert_eq!(
            labels,
            vec![Registrant, Registrant, Registrant, Registrant, Other, Other, Other]
        );
    }

    #[test]
    fn contact_type_discriminator() {
        let p = RuleBasedParser::full();
        let labels = p.label_blocks(
            "Contact Type: registrant\nContact Name: J\nContact Mail: j@x.org\n\n\
             Contact Type: admin\nContact Name: K",
        );
        use BlockLabel::*;
        assert_eq!(
            labels,
            vec![Registrant, Registrant, Registrant, Other, Other]
        );
    }

    #[test]
    fn rollback_keeps_only_needed_rules() {
        let small = &examples(53, 5)[..];
        let rolled = RuleBasedParser::fit(small);
        let full = RuleBasedParser::full();
        assert!(rolled.enabled_rules() < full.enabled_rules());
        assert!(rolled.enabled_rules() > 5, "some rules always needed");
        // Rolled-back parser still labels its own training data well.
        let stats = rolled.evaluate(small);
        assert!(
            stats.line_error_rate() < 0.05,
            "{}",
            stats.line_error_rate()
        );
    }

    #[test]
    fn rollback_hurts_on_unseen_formats() {
        // Train on 5 records, evaluate on 200: the rolled-back parser must
        // be strictly worse than the full one (Figure 2's rule curve).
        let train = &examples(57, 5)[..];
        let test = examples(59, 200);
        let rolled = RuleBasedParser::fit(train);
        let full = RuleBasedParser::full();
        let r = rolled.evaluate(&test).line_error_rate();
        let f = full.evaluate(&test).line_error_rate();
        assert!(r > f, "rolled-back ({r}) should be worse than full ({f})");
    }

    #[test]
    fn parse_extracts_core_fields() {
        let p = RuleBasedParser::full();
        let raw = RawRecord::new(
            "x.com",
            "Registrar: eNom, Inc.\nCreation Date: 2012-03-04\n\
             Registrant Name: John Smith\nRegistrant Email: j@x.org",
        );
        let parsed = p.parse(&raw);
        assert_eq!(parsed.registrar.as_deref(), Some("eNom, Inc."));
        assert_eq!(parsed.creation_year(), Some(2012));
        let c = parsed.registrant.unwrap();
        assert_eq!(c.name.as_deref(), Some("John Smith"));
        assert_eq!(c.email.as_deref(), Some("j@x.org"));
    }

    #[test]
    fn symbol_banners_are_null() {
        let p = RuleBasedParser::full();
        let labels = p.label_blocks("% NOTICE: terms apply\n>>> Last update <<<");
        assert_eq!(labels, vec![BlockLabel::Null, BlockLabel::Null]);
    }

    #[test]
    fn fit_rejects_misaligned_gold() {
        let bad = vec![("two\nlines".to_string(), vec![BlockLabel::Null])];
        assert!(std::panic::catch_unwind(|| RuleBasedParser::fit(&bad)).is_err());
    }
}
