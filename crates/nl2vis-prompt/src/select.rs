//! Demonstration selection for in-context learning.
//!
//! The paper selects demonstrations by Jaccard similarity to the test
//! question (§2.2.2) and, in RQ2-2 / Figure 8, controls the *diversity* of
//! the demonstrations: `A` distinct databases × `B` examples per database.

use nl2vis_corpus::Example;
use nl2vis_data::text::{top_k, words, SetIndex};
use nl2vis_data::Rng;
use std::collections::{BTreeMap, HashSet};

/// Template filler words carried by almost every realized question; they
/// would otherwise dominate the Jaccard signal and drown out the schema
/// words that identify the relevant database.
const FILLER: &[&str] = &[
    "show",
    "draw",
    "plot",
    "visualize",
    "display",
    "give",
    "me",
    "create",
    "a",
    "an",
    "the",
    "of",
    "chart",
    "graph",
    "for",
    "each",
    "by",
    "per",
    "grouped",
    "across",
    "from",
    "in",
    "using",
    "table",
    "records",
    "where",
    "is",
    "order",
    "sorted",
    "ordered",
    "ranked",
    "rank",
    "ascending",
    "descending",
    "and",
    "or",
    "to",
    "number",
    "how",
    "many",
    "count",
    "total",
    "sum",
    "average",
    "mean",
    "combined",
];

/// Extracts the content-word set of a question.
fn content_set(text: &str) -> HashSet<String> {
    words(text)
        .into_iter()
        .filter(|w| !FILLER.contains(&w.as_str()))
        .collect()
}

/// An `exclude_id` no example has: the selection keeps the whole pool.
const KEEP_ALL: usize = usize::MAX;

/// A demonstration pool indexed once by content words, so repeated
/// selections over the same training split neither re-tokenize nor
/// intersect per-example sets. Every selector ranks examples by content-word
/// Jaccard similarity (identical to [`jaccard_sets`]), ties by example id,
/// and databases by their best example's score, ties by database name.
///
/// [`jaccard_sets`]: nl2vis_data::text::jaccard_sets
pub struct DemoPool<'a> {
    /// Pooled examples in id order, so a tie broken by position is broken
    /// by id.
    examples: Vec<&'a Example>,
    /// Content-word sets of `examples`, by position.
    index: SetIndex,
    /// Positions of each database's examples, databases in name order.
    dbs: Vec<Vec<usize>>,
}

impl<'a> DemoPool<'a> {
    /// Builds the pool from candidate examples.
    pub fn new(pool: &[&'a Example]) -> DemoPool<'a> {
        let mut examples = pool.to_vec();
        examples.sort_by_key(|e| e.id);
        let index = SetIndex::new(examples.iter().map(|e| content_set(&e.nl)));
        let mut by_db: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, e) in examples.iter().enumerate() {
            by_db.entry(e.db.as_str()).or_default().push(i);
        }
        DemoPool {
            dbs: by_db.into_values().collect(),
            examples,
            index,
        }
    }

    /// Number of pooled examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Top-`k` most similar demonstrations, excluding `exclude_id`.
    pub fn select_similar(&self, question: &str, k: usize, exclude_id: usize) -> Vec<&'a Example> {
        let scores = self.index.scores(&content_set(question));
        let kept = (0..self.examples.len()).filter(|i| self.examples[*i].id != exclude_id);
        self.picked(top_k(&scores, kept, k))
    }

    /// All `k` demonstrations from the single most relevant database,
    /// excluding `exclude_id`.
    pub fn select_same_db(&self, question: &str, k: usize, exclude_id: usize) -> Vec<&'a Example> {
        self.select_grouped(question, 1, k, exclude_id)
    }

    /// `dbs × per_db` demonstrations from distinct databases, excluding
    /// `exclude_id`.
    pub fn select_grouped(
        &self,
        question: &str,
        dbs: usize,
        per_db: usize,
        exclude_id: usize,
    ) -> Vec<&'a Example> {
        let scores = self.index.scores(&content_set(question));
        let members = |db: usize| {
            self.dbs[db]
                .iter()
                .copied()
                .filter(move |i| self.examples[*i].id != exclude_id)
        };
        let best: Vec<f64> = (0..self.dbs.len())
            .map(|db| members(db).map(|i| scores[i]).fold(f64::MIN, f64::max))
            .collect();
        let live = (0..self.dbs.len()).filter(|db| members(*db).next().is_some());
        let picked = top_k(&best, live, dbs)
            .into_iter()
            .flat_map(|db| top_k(&scores, members(db), per_db))
            .collect();
        self.picked(picked)
    }

    fn picked(&self, positions: Vec<usize>) -> Vec<&'a Example> {
        positions.into_iter().map(|i| self.examples[i]).collect()
    }
}

/// Selects up to `k` demonstrations from the pool, most Jaccard-similar to
/// the question first.
pub fn select_by_similarity<'a>(
    pool: &[&'a Example],
    question: &str,
    k: usize,
) -> Vec<&'a Example> {
    DemoPool::new(pool).select_similar(question, k, KEEP_ALL)
}

/// Selects demonstrations restricted to one database: the pool database most
/// similar to the question supplies all `k` examples (mimicking "examples
/// drawn from the same database" in Figure 8).
pub fn select_same_database<'a>(
    pool: &[&'a Example],
    question: &str,
    k: usize,
) -> Vec<&'a Example> {
    DemoPool::new(pool).select_same_db(question, k, KEEP_ALL)
}

/// Selects `n_dbs × per_db` demonstrations from `n_dbs` distinct databases
/// (`A × B` of Figure 8). Databases are ranked by similarity; within each,
/// the most similar examples are taken. Falls back to fewer databases when
/// the pool has too few.
pub fn select_grouped<'a>(
    pool: &[&'a Example],
    question: &str,
    n_dbs: usize,
    per_db: usize,
) -> Vec<&'a Example> {
    DemoPool::new(pool).select_grouped(question, n_dbs, per_db, KEEP_ALL)
}

/// Selects `k` random demonstrations (ablation baseline for the
/// similarity-based selector).
pub fn select_random<'a>(pool: &[&'a Example], k: usize, rng: &mut Rng) -> Vec<&'a Example> {
    let idx = rng.sample_indices(pool.len(), k);
    idx.into_iter().map(|i| pool[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::{Corpus, CorpusConfig};
    use nl2vis_data::text::jaccard_sets;

    fn corpus() -> Corpus {
        Corpus::build(&CorpusConfig::small(11))
    }

    #[test]
    fn similarity_selection_prefers_similar() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let probe = &c.examples[5];
        let picked = select_by_similarity(&pool, &probe.nl, 3);
        assert_eq!(picked.len(), 3);
        // The probe itself is in the pool and maximally similar.
        assert_eq!(picked[0].id, probe.id);
    }

    #[test]
    fn same_database_selection_is_single_db() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let picked = select_same_database(&pool, &c.examples[0].nl, 4);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 1);
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn grouped_selection_spans_databases() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let picked = select_grouped(&pool, &c.examples[0].nl, 3, 2);
        assert_eq!(picked.len(), 6);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 3);
    }

    #[test]
    fn grouped_caps_at_available_databases() {
        let c = corpus();
        let one_db = c.examples[0].db.clone();
        let pool: Vec<&Example> = c.examples.iter().filter(|e| e.db == one_db).collect();
        let picked = select_grouped(&pool, "anything", 4, 1);
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn random_selection_is_distinct_and_seeded() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let a = select_random(&pool, 5, &mut Rng::new(3));
        let b = select_random(&pool, 5, &mut Rng::new(3));
        assert_eq!(
            a.iter().map(|e| e.id).collect::<Vec<_>>(),
            b.iter().map(|e| e.id).collect::<Vec<_>>()
        );
        let ids: HashSet<usize> = a.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 5);
    }

    /// The scan the pool replaces: `jaccard_sets` against every candidate's
    /// content set, then a full sort by (score descending, id ascending).
    fn reference_ranking<'a>(
        sets: &[(&'a Example, HashSet<String>)],
        q: &str,
    ) -> Vec<(f64, &'a Example)> {
        let q = content_set(q);
        let mut v: Vec<(f64, &Example)> = sets
            .iter()
            .map(|(e, set)| (jaccard_sets(&q, set), *e))
            .collect();
        v.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
        v
    }

    /// The reference's `dbs × per_db` pick from a ranking: databases by
    /// their best score, then by name.
    fn reference_grouped(ranked: &[(f64, &Example)], dbs: usize, per_db: usize) -> Vec<usize> {
        let mut best: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, e) in ranked {
            best.entry(e.db.as_str()).or_insert(*s);
        }
        let mut order: Vec<(&str, f64)> = best.into_iter().collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        order
            .into_iter()
            .take(dbs)
            .flat_map(|(db, _)| ranked.iter().filter(move |(_, e)| e.db == db).take(per_db))
            .map(|(_, e)| e.id)
            .collect()
    }

    fn ids(v: Vec<&Example>) -> Vec<usize> {
        v.iter().map(|e| e.id).collect()
    }

    /// Every pooled selector picks what the reference scan picks, for every
    /// probe, with the probe kept in the pool and left out; the free
    /// functions, for every fiftieth probe.
    #[test]
    fn pooled_selectors_match_reference_scan() {
        let c = corpus();
        let mut pool_refs: Vec<&Example> = c.examples.iter().collect();
        // Out of id order: ties must still go to the lower id.
        Rng::new(0xDE40).shuffle(&mut pool_refs);
        let pool = DemoPool::new(&pool_refs);
        let sets: Vec<(&Example, HashSet<String>)> =
            pool_refs.iter().map(|e| (*e, content_set(&e.nl))).collect();
        for (n, probe) in c.examples.iter().enumerate() {
            let q = probe.nl.as_str();
            let everything = reference_ranking(&sets, q);
            let top4 = |ranked: &[(f64, &Example)]| -> Vec<usize> {
                ranked.iter().take(4).map(|(_, e)| e.id).collect()
            };
            for exclude in [KEEP_ALL, probe.id] {
                let ranked: Vec<(f64, &Example)> = everything
                    .iter()
                    .copied()
                    .filter(|(_, e)| e.id != exclude)
                    .collect();
                assert_eq!(ids(pool.select_similar(q, 4, exclude)), top4(&ranked));
                assert_eq!(
                    ids(pool.select_same_db(q, 4, exclude)),
                    reference_grouped(&ranked, 1, 4)
                );
                assert_eq!(
                    ids(pool.select_grouped(q, 3, 2, exclude)),
                    reference_grouped(&ranked, 3, 2)
                );
            }
            if n % 50 == 0 {
                assert_eq!(
                    ids(select_by_similarity(&pool_refs, q, 4)),
                    top4(&everything)
                );
                assert_eq!(
                    ids(select_same_database(&pool_refs, q, 4)),
                    reference_grouped(&everything, 1, 4)
                );
                assert_eq!(
                    ids(select_grouped(&pool_refs, q, 3, 2)),
                    reference_grouped(&everything, 3, 2)
                );
            }
        }
    }

    /// When two databases tie on their best score, the one first by name
    /// supplies the demonstrations, whatever the pool order.
    #[test]
    fn same_db_ties_go_to_the_first_database_by_name() {
        let c = corpus();
        let mut a = c.examples[0].clone();
        let mut b = c.examples.iter().find(|e| e.db != a.db).unwrap().clone();
        (a.db, b.db) = ("a_db".into(), "b_db".into());
        (a.nl, b.nl) = ("sales per city".into(), "sales per city".into());
        // b comes first in the pool and by id.
        (a.id, b.id) = (2, 1);
        let pool_refs = [&b, &a];
        let pool = DemoPool::new(&pool_refs);
        assert_eq!(ids(pool.select_same_db("city sales", 4, KEEP_ALL)), vec![2]);
        assert_eq!(
            ids(select_same_database(&pool_refs, "city sales", 4)),
            vec![2]
        );
    }

    #[test]
    fn pooled_same_db_is_single_db_and_excludes() {
        let c = corpus();
        let pool_refs: Vec<&Example> = c.examples.iter().collect();
        let pool = DemoPool::new(&pool_refs);
        let probe = &c.examples[5];
        let picked = pool.select_same_db(&probe.nl, 4, probe.id);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 1);
        assert!(picked.iter().all(|e| e.id != probe.id));
    }

    #[test]
    fn selection_deterministic_under_ties() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let a = select_by_similarity(&pool, "completely unrelated words qqq", 4);
        let b = select_by_similarity(&pool, "completely unrelated words qqq", 4);
        assert_eq!(
            a.iter().map(|e| e.id).collect::<Vec<_>>(),
            b.iter().map(|e| e.id).collect::<Vec<_>>()
        );
    }
}
