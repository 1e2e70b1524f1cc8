//! The benchmark's inputs, all derived from `--seed`: the DBLP-like and
//! XMARK-like corpora, the fresh records the churn writer inserts, and the
//! paper's Table-3 queries.

use vist_datagen::{dblp, xmark};
use vist_xml::Document;

/// DBLP-like records in the base corpus.
pub const DBLP_RECORDS: usize = 10_000;
/// XMARK-like sub-structures in the base corpus.
pub const XMARK_RECORDS: usize = 6_000;
/// Share of each generator's records bulk-loaded into the one segment;
/// the rest go into the delta through `insert_batch`.
pub const SEGMENT_SHARE: f64 = 0.8;

/// The record kind every point lookup targets. A lookup scans every
/// record of its kind (about 45% of records are `inproceedings`, 40%
/// `article`, the rest a few hundred each), so a stream mixing kinds has a
/// cost distribution with gaps, and its median jumps between runs with the
/// seeded kind mix. One kind keeps lookup cost unimodal.
pub const LOOKUP_KIND: &str = "inproceedings";

/// A DBLP record's root element and its `key` attribute; only records
/// whose key is unique in the corpus get one (the Q5 sentinel key is
/// planted on several books).
#[derive(Debug, Clone)]
pub struct Keyed {
    pub kind: String,
    pub key: String,
}

impl Keyed {
    /// The point lookup that must return exactly this record.
    pub fn lookup_expr(&self) -> String {
        format!("/{}[key='{}']/title", self.kind, self.key)
    }
}

pub struct Corpus {
    /// Every document, in load order: the segment part, then the delta
    /// part.
    pub xml: Vec<String>,
    /// Parallel to `xml`: the record key of a DBLP record with a unique key.
    pub keyed: Vec<Option<Keyed>>,
    /// `xml[..bulk_len]` goes into the segment.
    pub bulk_len: usize,
    pub dblp_bytes: u64,
    pub xmark_bytes: u64,
}

impl Corpus {
    pub fn bytes(&self) -> u64 {
        self.dblp_bytes + self.xmark_bytes
    }
}

fn keyed(doc: &Document) -> Option<Keyed> {
    let root = doc.root()?;
    let key = doc.attribute(root, "key")?;
    (key != dblp::PLANTED_BOOK_KEY).then(|| Keyed {
        kind: doc.name(root).to_string(),
        key: key.to_string(),
    })
}

pub fn generate(seed: u64) -> Corpus {
    let dblp_docs = dblp::documents(DBLP_RECORDS, seed);
    let xmark_docs = xmark::documents(XMARK_RECORDS, seed.wrapping_add(1));
    let dblp_bulk = (DBLP_RECORDS as f64 * SEGMENT_SHARE) as usize;
    let xmark_bulk = (XMARK_RECORDS as f64 * SEGMENT_SHARE) as usize;
    let mut xml = Vec::with_capacity(DBLP_RECORDS + XMARK_RECORDS);
    let mut keys = Vec::with_capacity(DBLP_RECORDS + XMARK_RECORDS);
    let (mut dblp_bytes, mut xmark_bytes) = (0u64, 0u64);
    let parts: [(&[Document], bool); 4] = [
        (&dblp_docs[..dblp_bulk], true),
        (&xmark_docs[..xmark_bulk], false),
        (&dblp_docs[dblp_bulk..], true),
        (&xmark_docs[xmark_bulk..], false),
    ];
    for (docs, is_dblp) in parts {
        for d in docs {
            let x = d.to_xml();
            if is_dblp {
                dblp_bytes += x.len() as u64;
                keys.push(keyed(d));
            } else {
                xmark_bytes += x.len() as u64;
                keys.push(None);
            }
            xml.push(x);
        }
    }
    Corpus {
        xml,
        keyed: keys,
        bulk_len: dblp_bulk + xmark_bulk,
        dblp_bytes,
        xmark_bytes,
    }
}

/// Fresh DBLP-like records for the churn writer, from a seed of their own.
/// Each insertion gets a key no other live record has (see
/// [`FreshPool::record`]), so a lookup has exactly one right answer.
pub struct FreshPool {
    /// `(kind, xml with the key attribute value replaced by "{}")`.
    templates: Vec<(String, String)>,
}

/// Distinct fresh records generated; insertions cycle through them.
pub const FRESH_RECORDS: usize = 2_048;

impl FreshPool {
    pub fn generate(seed: u64) -> Self {
        let templates = dblp::documents(FRESH_RECORDS, seed.wrapping_add(2))
            .iter()
            .map(|d| {
                let root = d.root().expect("generated record has a root");
                let key = d.attribute(root, "key").expect("every record has a key");
                let xml = d
                    .to_xml()
                    .replacen(&format!("key=\"{key}\""), "key=\"{}\"", 1);
                assert!(
                    xml.contains("key=\"{}\""),
                    "key attribute not found in {xml}"
                );
                (d.name(root).to_string(), xml)
            })
            .collect();
        FreshPool { templates }
    }

    /// The `n`th insertion: its lookup key and its XML. Keys live in a
    /// `churn/` namespace no base record uses.
    pub fn record(&self, n: u64) -> (Keyed, String) {
        let (kind, template) = &self.templates[(n % self.templates.len() as u64) as usize];
        let key = format!("{kind}/churn/{n}");
        let xml = template.replacen("{}", &key, 1);
        (
            Keyed {
                kind: kind.clone(),
                key,
            },
            xml,
        )
    }
}

/// The paper's Table-3 queries Q1–Q8 (Q1–Q5 over DBLP, Q6–Q8 over XMARK).
pub fn table3_queries() -> Vec<(&'static str, String)> {
    let mut q = dblp::table3_queries();
    q.extend(xmark::table3_queries());
    q
}
