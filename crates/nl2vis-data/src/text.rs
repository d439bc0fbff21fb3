//! Text utilities shared by the demonstration selector and schema linkers:
//! identifier tokenization, lowercase word extraction, and Jaccard
//! similarity (the paper selects demonstration rows and examples by Jaccard
//! similarity, §2.2.2 and §5.1.1), pairwise or through a [`SetIndex`] over a
//! whole pool.

use std::collections::{HashMap, HashSet};

/// Splits an identifier into lowercase word tokens: `snake_case`,
/// `kebab-case`, `camelCase`, `PascalCase` and digit boundaries are all word
/// breaks. `"orderID2"` → `["order", "id", "2"]`.
pub fn split_identifier(ident: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for c in ident.chars() {
        if c == '_' || c == '-' || c == ' ' || c == '.' {
            flush(&mut words, &mut current);
            prev_lower = false;
        } else if c.is_ascii_uppercase() {
            if prev_lower {
                flush(&mut words, &mut current);
            }
            current.push(c.to_ascii_lowercase());
            prev_lower = false;
        } else if c.is_ascii_digit() {
            if !current
                .chars()
                .next_back()
                .is_some_and(|p| p.is_ascii_digit())
                && !current.is_empty()
            {
                flush(&mut words, &mut current);
            }
            current.push(c);
            prev_lower = false;
        } else {
            current.push(c.to_ascii_lowercase());
            prev_lower = true;
        }
    }
    flush(&mut words, &mut current);
    words
}

fn flush(words: &mut Vec<String>, current: &mut String) {
    if !current.is_empty() {
        words.push(std::mem::take(current));
    }
}

/// Lowercase alphanumeric word tokens from free text. Punctuation is
/// discarded; digits stay attached to their run (`"top 5"` → `["top","5"]`).
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Jaccard similarity of the word sets of two strings: |A∩B| / |A∪B|.
/// Returns 1.0 when both are empty.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = words(a).into_iter().collect();
    let sb: HashSet<String> = words(b).into_iter().collect();
    jaccard_sets(&sa, &sb)
}

/// Jaccard similarity of two pre-tokenized word sets.
pub fn jaccard_sets(sa: &HashSet<String>, sb: &HashSet<String>) -> f64 {
    jaccard_counts(sa.len(), sb.len(), sa.intersection(sb).count())
}

/// Jaccard similarity from set sizes and intersection size. [`jaccard_sets`]
/// and [`SetIndex`] both score through it, so their scores agree bit for bit.
fn jaccard_counts(a: usize, b: usize, inter: usize) -> f64 {
    if a == 0 && b == 0 {
        return 1.0;
    }
    let inter = inter as f64;
    let union = (a + b) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// An inverted index over word sets that scores a query set against every
/// indexed set by Jaccard similarity.
///
/// Words are interned to `u32` ids, each with a postings list of the sets
/// that contain it. A query counts its intersection with every set by
/// walking only the postings of its own words, so its cost is one counter
/// per indexed set plus one increment per (query word, set holding it) pair,
/// not one hash-set intersection per set. Each score is then
/// `inter / (|q| + |e| - inter)` from the same integer counts as
/// [`jaccard_sets`], identical to it bit for bit; two empty sets score 1.0.
#[derive(Debug, Clone, Default)]
pub struct SetIndex {
    /// Word → id.
    vocab: HashMap<String, u32>,
    /// Per word id, the positions of the sets holding the word, ascending.
    postings: Vec<Vec<u32>>,
    /// Per set, its number of distinct words.
    sizes: Vec<u32>,
}

impl SetIndex {
    /// Indexes `sets` in order; a set's position is its place in `sets`.
    /// Repeated words within a set count once.
    pub fn new<S, W>(sets: impl IntoIterator<Item = S>) -> SetIndex
    where
        S: IntoIterator<Item = W>,
        W: AsRef<str>,
    {
        let mut index = SetIndex::default();
        let mut ids = Vec::new();
        for (pos, set) in sets.into_iter().enumerate() {
            let pos = u32::try_from(pos).expect("fewer than 2^32 indexed sets");
            ids.clear();
            for w in set {
                let w = w.as_ref();
                let id = match index.vocab.get(w) {
                    Some(id) => *id,
                    None => {
                        let id = u32::try_from(index.postings.len())
                            .expect("fewer than 2^32 distinct words");
                        index.vocab.insert(w.to_string(), id);
                        index.postings.push(Vec::new());
                        id
                    }
                };
                ids.push(id);
            }
            ids.sort_unstable();
            ids.dedup();
            for id in &ids {
                index.postings[*id as usize].push(pos);
            }
            index.sizes.push(ids.len() as u32);
        }
        index
    }

    /// The Jaccard similarity of `query` to every indexed set, by position.
    pub fn scores(&self, query: &HashSet<String>) -> Vec<f64> {
        let mut inter = vec![0u32; self.sizes.len()];
        for id in query.iter().filter_map(|w| self.vocab.get(w.as_str())) {
            for pos in &self.postings[*id as usize] {
                inter[*pos as usize] += 1;
            }
        }
        inter
            .iter()
            .zip(&self.sizes)
            .map(|(i, e)| jaccard_counts(query.len(), *e as usize, *i as usize))
            .collect()
    }
}

/// The `k` best of `candidates`, which are positions into `scores`, best
/// first: score descending, ties by position ascending. The `k` are picked
/// with `select_nth_unstable_by` and only they are sorted, so ranking `n`
/// candidates costs O(n + k log k), not a full sort.
pub fn top_k(scores: &[f64], candidates: impl IntoIterator<Item = usize>, k: usize) -> Vec<usize> {
    // total_cmp keeps the comparator a total order even with a NaN score.
    let best_first = |a: &usize, b: &usize| scores[*b].total_cmp(&scores[*a]).then(a.cmp(b));
    if k == 0 {
        return Vec::new();
    }
    let mut picked: Vec<usize> = candidates.into_iter().collect();
    if k < picked.len() {
        picked.select_nth_unstable_by(k - 1, best_first);
        picked.truncate(k);
    }
    picked.sort_unstable_by(best_first);
    picked
}

/// Crude singularization for schema linking ("technicians" → "technician").
/// Handles the regular English plural suffixes that appear in generated
/// schemas; irregulars go through alias lists instead.
pub fn singularize(word: &str) -> String {
    if let Some(stem) = word.strip_suffix("ies") {
        if stem.len() >= 2 {
            return format!("{stem}y");
        }
    }
    for suffix in ["ses", "xes", "zes", "ches", "shes"] {
        if let Some(stem) = word.strip_suffix(suffix) {
            return format!("{stem}{}", &suffix[..suffix.len() - 2]);
        }
    }
    if let Some(stem) = word.strip_suffix('s') {
        if !stem.ends_with('s') && stem.len() >= 2 {
            return stem.to_string();
        }
    }
    word.to_string()
}

/// Token-set equality after singularization; used to decide whether an NL
/// phrase names a schema identifier.
pub fn phrase_matches_identifier(phrase: &str, ident: &str) -> bool {
    let norm = |s: &str| -> Vec<String> {
        let mut w: Vec<String> = split_identifier(s).iter().map(|t| singularize(t)).collect();
        w.sort();
        w
    };
    norm(phrase) == norm(ident)
}

/// Approximate token count of a prompt string, for the paper's discussion of
/// LLM context-length limits. Counts word and punctuation chunks, roughly
/// matching GPT-style byte-pair tokenizers within a small constant factor.
pub fn approx_token_count(text: &str) -> usize {
    let mut count = 0usize;
    let mut in_word = false;
    for c in text.chars() {
        if c.is_alphanumeric() {
            if !in_word {
                count += 1;
                in_word = true;
            }
        } else {
            in_word = false;
            if !c.is_whitespace() {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_snake_camel_digits() {
        assert_eq!(split_identifier("order_id"), vec!["order", "id"]);
        assert_eq!(split_identifier("orderID2"), vec!["order", "id", "2"]);
        assert_eq!(
            split_identifier("CamelCaseName"),
            vec!["camel", "case", "name"]
        );
        assert_eq!(split_identifier("kebab-case"), vec!["kebab", "case"]);
        assert_eq!(split_identifier("a.b c"), vec!["a", "b", "c"]);
        assert!(split_identifier("").is_empty());
    }

    #[test]
    fn words_strip_punctuation() {
        assert_eq!(
            words("List the top 5, please!"),
            vec!["list", "the", "top", "5", "please"]
        );
    }

    #[test]
    fn jaccard_basic() {
        assert!((jaccard("a b c", "b c d") - 0.5).abs() < 1e-12);
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("x", ""), 0.0);
        assert_eq!(jaccard("same words", "words same"), 1.0);
    }

    /// Random word sets over a vocabulary of `vocab` words, some empty.
    fn random_sets(rng: &mut crate::Rng, n: usize, vocab: usize) -> Vec<HashSet<String>> {
        (0..n)
            .map(|_| {
                let len = rng.below_usize(6);
                (0..len)
                    .map(|_| format!("w{}", rng.below_usize(vocab)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn set_index_scores_equal_jaccard_sets_bit_for_bit() {
        let mut rng = crate::Rng::new(0x5E7);
        for round in 0..40 {
            let sets = random_sets(&mut rng, 1 + round * 3, 12);
            let index = SetIndex::new(&sets);
            let mut queries = random_sets(&mut rng, 10, 16);
            // The empty query, and words no indexed set holds.
            queries.push(HashSet::new());
            queries.push(["w1", "zz", "yy"].map(String::from).into());
            for q in &queries {
                let got = index.scores(q);
                let want: Vec<u64> = sets.iter().map(|e| jaccard_sets(q, e).to_bits()).collect();
                assert_eq!(got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), want);
            }
        }
        // Two empty sets score 1.0, as jaccard_sets has it.
        let index = SetIndex::new([Vec::<&str>::new(), vec!["a", "a"]]);
        assert_eq!(index.scores(&HashSet::new()), vec![1.0, 0.0]);
        assert_eq!(index.scores(&["a".to_string()].into()), vec![0.0, 1.0]);
        let empty = SetIndex::new(Vec::<Vec<&str>>::new());
        assert!(empty.scores(&["a".to_string()].into()).is_empty());
    }

    #[test]
    fn top_k_equals_a_full_sort() {
        let mut rng = crate::Rng::new(0x709);
        for _ in 0..50 {
            let n = rng.below_usize(30);
            // Few distinct scores, so most comparisons are ties.
            let scores: Vec<f64> = (0..n).map(|_| rng.below_usize(4) as f64 / 4.0).collect();
            let candidates: Vec<usize> = (0..n).filter(|_| rng.chance(0.8)).collect();
            let mut full = candidates.clone();
            full.sort_by(|a, b| scores[*b].total_cmp(&scores[*a]).then(a.cmp(b)));
            for k in [0, 1, 3, candidates.len(), candidates.len() + 5] {
                let want: Vec<usize> = full.iter().copied().take(k).collect();
                assert_eq!(top_k(&scores, candidates.iter().copied(), k), want);
            }
        }
    }

    #[test]
    fn singularize_rules() {
        assert_eq!(singularize("technicians"), "technician");
        assert_eq!(singularize("cities"), "city");
        assert_eq!(singularize("boxes"), "box");
        assert_eq!(singularize("matches"), "match");
        assert_eq!(singularize("glass"), "glass");
        assert_eq!(singularize("bus"), "bu"); // acceptable crudeness
        assert_eq!(singularize("is"), "is"); // too short to strip
    }

    #[test]
    fn phrase_identifier_match() {
        assert!(phrase_matches_identifier("customer names", "customer_name"));
        assert!(phrase_matches_identifier("OrderId", "order_id"));
        assert!(!phrase_matches_identifier("customer", "customer_name"));
    }

    #[test]
    fn token_count_rough() {
        assert_eq!(approx_token_count("hello world"), 2);
        assert_eq!(approx_token_count("a,b"), 3);
        assert_eq!(approx_token_count(""), 0);
        let long = "word ".repeat(100);
        assert_eq!(approx_token_count(&long), 100);
    }
}
