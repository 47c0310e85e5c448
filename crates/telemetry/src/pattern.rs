//! Glob-like patterns over hierarchical sensor names.
//!
//! Patterns support two wildcards, matching the conventions of production
//! monitoring stacks:
//!
//! * `*` matches exactly one path component (`/hw/*/power` matches
//!   `/hw/node0/power` but not `/hw/rack0/node0/power`);
//! * `**` matches zero or more trailing or interior components
//!   (`/hw/**` matches everything under `/hw`).
//!
//! Matching is component-wise; no partial-component wildcards are supported
//! (sensor leaves are short fixed vocabularies, so `cpu*` style matching is
//! not needed and keeping the grammar small keeps matching allocation-free).

use serde::Serialize;

/// A compiled sensor-name pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SensorPattern {
    components: Vec<Component>,
    source: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
enum Component {
    Literal(String),
    AnyOne,
    AnyDeep,
}

impl SensorPattern {
    /// Compiles a pattern.
    ///
    /// # Panics
    /// Panics if the pattern is not an absolute path (must start with `/`).
    pub fn new(pattern: &str) -> Self {
        assert!(
            pattern.starts_with('/'),
            "sensor patterns must be absolute, got {pattern:?}"
        );
        let components = pattern
            .trim_start_matches('/')
            .split('/')
            .filter(|c| !c.is_empty())
            .map(|c| match c {
                "*" => Component::AnyOne,
                "**" => Component::AnyDeep,
                lit => Component::Literal(lit.to_owned()),
            })
            .collect();
        SensorPattern {
            components,
            source: pattern.to_owned(),
        }
    }

    /// The original pattern text.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// The pattern's components joined by single `/`s: spellings that
    /// compile to the same pattern (`/hw/**`, `/hw/**/`, `//hw/**`) share
    /// one canonical form.
    pub fn canonical(&self) -> String {
        if self.components.is_empty() {
            return "/".to_owned();
        }
        let mut text = String::new();
        for component in &self.components {
            text.push('/');
            text.push_str(match component {
                Component::Literal(lit) => lit,
                Component::AnyOne => "*",
                Component::AnyDeep => "**",
            });
        }
        text
    }

    /// The name the pattern's leading literal components spell, followed
    /// by `/` (`"/hw/node5/"` for `/hw/node5/*`), and whether every
    /// component is literal; `None` when the first component is a
    /// wildcard. Every name with no empty components that the pattern
    /// matches is the prefix without its final `/`, or starts with the
    /// whole prefix.
    pub(crate) fn literal_prefix(&self) -> Option<(String, bool)> {
        let mut prefix = String::from("/");
        let mut literals = 0;
        for component in &self.components {
            let Component::Literal(lit) = component else {
                break;
            };
            prefix.push_str(lit);
            prefix.push('/');
            literals += 1;
        }
        let all_literal = literals == self.components.len();
        (literals > 0 || all_literal).then_some((prefix, all_literal))
    }

    /// Tests `name` against the pattern. Empty components (a doubled or
    /// trailing `/`) are ignored, as in the pattern itself.
    pub fn matches(&self, name: &str) -> bool {
        #[cfg(test)]
        tally::count();
        Self::match_components(&self.components, name.split('/').filter(|c| !c.is_empty()))
    }

    /// Matches over a cloneable iterator of the name's components, so
    /// backtracking for `**` copies an iterator, never the components.
    fn match_components<'a>(
        pat: &[Component],
        mut parts: impl Iterator<Item = &'a str> + Clone,
    ) -> bool {
        match pat.split_first() {
            None => parts.next().is_none(),
            Some((Component::Literal(lit), rest)) => {
                parts.next() == Some(lit.as_str()) && Self::match_components(rest, parts)
            }
            Some((Component::AnyOne, rest)) => {
                parts.next().is_some() && Self::match_components(rest, parts)
            }
            // `**` may consume zero or more components; a trailing one
            // consumes whatever is left.
            Some((Component::AnyDeep, [])) => true,
            Some((Component::AnyDeep, rest)) => loop {
                if Self::match_components(rest, parts.clone()) {
                    return true;
                }
                if parts.next().is_none() {
                    return false;
                }
            },
        }
    }
}

/// Counts [`SensorPattern::matches`] calls on the calling thread, for the
/// tests that hold name resolution to its budget.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local!(static MATCHES: Cell<usize> = const { Cell::new(0) });

    pub(super) fn count() {
        MATCHES.with(|m| m.set(m.get() + 1));
    }

    /// `matches` calls made since the last call on this thread.
    pub(crate) fn take() -> usize {
        MATCHES.with(|m| m.replace(0))
    }
}

impl From<&str> for SensorPattern {
    /// Compiles the string as a pattern (panics if not absolute), so builder
    /// APIs accept `"/hw/**"` directly.
    fn from(pattern: &str) -> Self {
        SensorPattern::new(pattern)
    }
}

impl From<&SensorPattern> for SensorPattern {
    fn from(pattern: &SensorPattern) -> Self {
        pattern.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_from_str_compiles() {
        let p: SensorPattern = "/hw/**".into();
        assert!(p.matches("/hw/node0/power"));
    }

    #[test]
    fn literal_patterns_match_exactly() {
        let p = SensorPattern::new("/hw/node0/power");
        assert!(p.matches("/hw/node0/power"));
        assert!(!p.matches("/hw/node0/temp"));
        assert!(!p.matches("/hw/node0"));
        assert!(!p.matches("/hw/node0/power/extra"));
    }

    #[test]
    fn star_matches_exactly_one_component() {
        let p = SensorPattern::new("/hw/*/power");
        assert!(p.matches("/hw/node0/power"));
        assert!(p.matches("/hw/node99/power"));
        assert!(!p.matches("/hw/power"));
        assert!(!p.matches("/hw/rack0/node0/power"));
    }

    #[test]
    fn double_star_matches_any_depth() {
        let p = SensorPattern::new("/hw/**");
        assert!(p.matches("/hw/node0/power"));
        assert!(p.matches("/hw/rack0/node0/cpu0/temp"));
        assert!(p.matches("/hw")); // zero components
        assert!(!p.matches("/facility/pdu0/power"));
    }

    #[test]
    fn interior_double_star() {
        let p = SensorPattern::new("/hw/**/temp");
        assert!(p.matches("/hw/temp"));
        assert!(p.matches("/hw/node0/temp"));
        assert!(p.matches("/hw/rack0/node0/cpu1/temp"));
        assert!(!p.matches("/hw/node0/power"));
    }

    #[test]
    fn mixed_wildcards() {
        let p = SensorPattern::new("/*/node0/**");
        assert!(p.matches("/hw/node0/power"));
        assert!(p.matches("/sw/node0/load/avg"));
        assert!(!p.matches("/hw/node1/power"));
    }

    #[test]
    fn equivalent_spellings_share_a_canonical_form() {
        for spelling in ["/hw/**", "/hw/**/", "//hw/**", "/hw//**"] {
            assert_eq!(SensorPattern::new(spelling).canonical(), "/hw/**");
        }
        assert_eq!(SensorPattern::new("/").canonical(), "/");
        assert_eq!(SensorPattern::new("//").canonical(), "/");
        assert_ne!(
            SensorPattern::new("/hw/*").canonical(),
            SensorPattern::new("/hw/**").canonical()
        );
    }

    #[test]
    #[should_panic(expected = "must be absolute")]
    fn relative_pattern_panics() {
        SensorPattern::new("hw/*");
    }

    /// The recursive slice matcher `matches` used to be: the name's
    /// components collected into a `Vec`, `**` retried at every suffix.
    fn reference_matches(pattern: &SensorPattern, name: &str) -> bool {
        fn go(pat: &[Component], parts: &[&str]) -> bool {
            match pat.split_first() {
                None => parts.is_empty(),
                Some((Component::Literal(lit), rest)) => parts
                    .split_first()
                    .is_some_and(|(head, tail)| head == lit && go(rest, tail)),
                Some((Component::AnyOne, rest)) => {
                    parts.split_first().is_some_and(|(_, tail)| go(rest, tail))
                }
                Some((Component::AnyDeep, rest)) => {
                    (0..=parts.len()).any(|k| go(rest, &parts[k..]))
                }
            }
        }
        let parts: Vec<&str> = name
            .trim_start_matches('/')
            .split('/')
            .filter(|c| !c.is_empty())
            .collect();
        go(&pattern.components, &parts)
    }

    #[test]
    fn matches_agrees_with_the_reference_matcher() {
        // Seeded random names and patterns over a small alphabet, so
        // literals collide often; `**` lands leading, interior, trailing
        // and repeated, and empty components and the bare `/` appear.
        const NAME_PARTS: [&str; 4] = ["a", "b", "hw", ""];
        const PATTERN_PARTS: [&str; 6] = ["a", "b", "hw", "*", "**", ""];
        let mut state = 0u64;
        let mut rand = |n: usize| {
            state += 1;
            crate::hash::splitmix64(state) as usize % n
        };
        fn path(parts: &[&str], rand: &mut impl FnMut(usize) -> usize) -> String {
            let mut s = String::new();
            for _ in 0..rand(6) {
                s.push('/');
                s.push_str(parts[rand(parts.len())]);
            }
            if s.is_empty() || rand(8) == 0 {
                s.push('/');
            }
            s
        }
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..20_000 {
            let pattern = SensorPattern::new(&path(&PATTERN_PARTS, &mut rand));
            let name = path(&NAME_PARTS, &mut rand);
            let want = reference_matches(&pattern, &name);
            assert_eq!(
                pattern.matches(&name),
                want,
                "{:?} vs {name:?}",
                pattern.as_str()
            );
            let canonical = SensorPattern::new(&pattern.canonical());
            assert_eq!(canonical.components, pattern.components);
            assert_eq!(canonical.canonical(), pattern.canonical());
            if want {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
    }
}
