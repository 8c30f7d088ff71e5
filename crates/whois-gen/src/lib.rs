//! # whois-gen
//!
//! A synthetic WHOIS **corpus generator** — the workspace's stand-in for
//! the paper's 102M-record `.com` crawl and 86K-record labeled ground
//! truth.
//!
//! The paper's learning problem is "map heterogeneous per-registrar line
//! formats to labels". This crate reproduces the *structure* of that
//! heterogeneity while giving exact ground truth at any corpus size:
//!
//! * [`entity`] — deterministic generators for people, organizations,
//!   addresses, phones, e-mails across countries.
//! * [`style`] — a data-driven template language: a registrar's record
//!   format is a list of [`style::Element`]s (banner, titled field,
//!   contact block, boilerplate, ...) rendered with a per-family
//!   format style (separator, casing, indentation, blank-line
//!   policy). Every rendered line carries its gold `BlockLabel` (and
//!   `RegistrantLabel` inside registrant blocks).
//! * [`families`] — 40+ concrete `.com` registrar template families built
//!   on the style language, from modern ICANN-uniform layouts to legacy
//!   label-free blocks.
//! * [`tlds`] — single-template formats for the 12 "new TLD" examples of
//!   the paper's Table 2.
//! * [`distributions`] — marginal distributions (registrar share,
//!   registrant country by year, privacy adoption, creation-date
//!   histogram) calibrated to the paper's Tables 3–7 and Figure 4.
//! * [`corpus`] — the top-level [`corpus::CorpusGenerator`]: an iterator
//!   of [`corpus::GeneratedDomain`]s combining all of the above, with
//!   matching thin records for the crawler.
//! * [`drift`] — schema-drift mutators (retitle, reorder, reseparate)
//!   used by the maintainability experiments (§5.3).
//! * [`blacklist`] — a synthetic DBL with the country/registrar skew of
//!   Tables 8–9.
//!
//! Everything is seeded: the same [`corpus::GenConfig`] always yields the
//! same corpus.

#![allow(clippy::needless_range_loop)]
// The explicit derefs clippy flags here pin type inference on
// `weighted_choice`'s generic return; removing them fails to compile.
#![allow(clippy::explicit_auto_deref, clippy::type_complexity)]

pub mod blacklist;
pub mod corpus;
pub mod distributions;
pub mod drift;
pub mod entity;
pub mod families;
pub mod registrars;
pub mod style;
pub mod tlds;
pub mod zonefile;

pub use corpus::{CorpusGenerator, GenConfig, GeneratedDomain};
pub use registrars::{Registrar, RegistrarDirectory};
