//! An XPath subset over [`XmlNode`] trees.
//!
//! GT4's Index Service answers queries "by using standard XPath-based
//! querying mechanism" (§3.1); GLARE's registries support the same queries
//! but short-circuit *named* lookups through a hash table. This module is
//! the XPath engine both sides share. Supported grammar:
//!
//! ```text
//! path      := '/'? step (('/' | '//') step)*
//! step      := nodetest predicate*
//! nodetest  := NAME | '*'
//! predicate := '[' INTEGER ']'                      positional (1-based)
//!            | '[' operand ('=' | '!=') literal ']' comparison
//!            | '[' '@' NAME ']'                     attribute existence
//! operand   := '@' NAME | NAME | 'text()'
//! ```
//!
//! Evaluation is a straightforward tree walk — deliberately so: its O(n)
//! document-scan cost is exactly the phenomenon the paper's Fig. 10/11
//! measures against the registry's hashtable fast path.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use glare_fabric::sync::RwLock;

use crate::xml::XmlNode;

/// A parse error in an XPath expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XPathError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the expression.
    pub offset: usize,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

/// A compiled XPath expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XPath {
    steps: Vec<Step>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Step {
    /// `true` for `//step` (descendant-or-self), `false` for `/step`.
    descendant: bool,
    test: NodeTest,
    predicates: Vec<Predicate>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeTest {
    Name(String),
    Any,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Operand {
    Attribute(String),
    ChildText(String),
    OwnText,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Predicate {
    Position(usize),
    AttributeExists(String),
    Compare {
        operand: Operand,
        literal: String,
        negated: bool,
    },
}

impl XPath {
    /// Compile an expression.
    pub fn compile(expr: &str) -> Result<XPath, XPathError> {
        Compiler {
            bytes: expr.as_bytes(),
            pos: 0,
        }
        .compile()
    }

    /// Evaluate against a document rooted at `root`, returning matching
    /// elements in document order.
    ///
    /// The root element is addressable by the first step (i.e.
    /// `/RootName/...` works as in a real document).
    pub fn select<'a>(&self, root: &'a XmlNode) -> Vec<&'a XmlNode> {
        let mut current: Vec<&'a XmlNode> = vec![root];
        let mut first = true;
        for step in &self.steps {
            let mut next: Vec<&'a XmlNode> = Vec::new();
            for node in &current {
                let mut candidates: Vec<&'a XmlNode> = Vec::new();
                if step.descendant {
                    collect_descendants_or_self(node, &mut candidates);
                } else if first {
                    // The first non-descendant step tests the root itself,
                    // standing in for the document node's children.
                    candidates.push(node);
                } else {
                    candidates.extend(node.children.iter());
                }
                let mut matched: Vec<&'a XmlNode> = candidates
                    .into_iter()
                    .filter(|n| step.test.matches(n))
                    .collect();
                apply_predicates(&step.predicates, &mut matched);
                next.extend(matched);
            }
            // One context node reaches each node at most once; only several
            // can reach the same node twice (`//a//b` under nested `a`s).
            if current.len() > 1 {
                dedup_by_identity(&mut next);
            }
            current = next;
            first = false;
        }
        current
    }

    /// Evaluate and extract string values: the text content of each
    /// matched element.
    pub fn select_texts(&self, root: &XmlNode) -> Vec<String> {
        self.select(root)
            .into_iter()
            .map(|n| n.text.clone())
            .collect()
    }
}

fn collect_descendants_or_self<'a>(node: &'a XmlNode, out: &mut Vec<&'a XmlNode>) {
    out.push(node);
    for c in &node.children {
        collect_descendants_or_self(c, out);
    }
}

fn apply_predicates(preds: &[Predicate], nodes: &mut Vec<&XmlNode>) {
    for pred in preds {
        match pred {
            Predicate::Position(p) => {
                let keep = nodes.get(p - 1).copied();
                nodes.clear();
                if let Some(n) = keep {
                    nodes.push(n);
                }
            }
            Predicate::AttributeExists(name) => {
                nodes.retain(|n| n.attribute(name).is_some());
            }
            Predicate::Compare {
                operand,
                literal,
                negated,
            } => {
                nodes.retain(|n| {
                    let value: Option<&str> = match operand {
                        Operand::Attribute(a) => n.attribute(a),
                        Operand::ChildText(c) => n.child_text_of(c),
                        Operand::OwnText => Some(n.text.as_str()),
                    };
                    let eq = value == Some(literal.as_str());
                    if *negated {
                        !eq
                    } else {
                        eq
                    }
                });
            }
        }
    }
}

fn dedup_by_identity(nodes: &mut Vec<&XmlNode>) {
    let mut seen: Vec<*const XmlNode> = Vec::with_capacity(nodes.len());
    nodes.retain(|n| {
        let p = *n as *const XmlNode;
        if seen.contains(&p) {
            false
        } else {
            seen.push(p);
            true
        }
    });
}

impl NodeTest {
    fn matches(&self, node: &XmlNode) -> bool {
        match self {
            NodeTest::Any => true,
            NodeTest::Name(n) => node.name == *n,
        }
    }
}

/// A concurrent compile cache for XPath expressions, keyed by the
/// expression string.
///
/// Query hot paths hand the same expressions to the engine over and over
/// (every Fig. 10 client issues the identical discovery query thousands of
/// times); memoizing the *compiled* form skips re-parsing while leaving
/// the per-query document walk — the cost the paper actually measures —
/// untouched.
///
/// The cache is bounded: once `capacity` distinct expressions are cached,
/// further misses compile without inserting (per-name generated
/// expressions would otherwise grow it without limit). Lookups take a
/// shared read lock, so concurrent queries do not serialize on the memo.
pub struct XPathMemo {
    cache: RwLock<HashMap<String, Arc<XPath>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Default number of distinct expressions an [`XPathMemo`] retains.
pub const XPATH_MEMO_CAPACITY: usize = 1024;

impl Default for XPathMemo {
    fn default() -> Self {
        XPathMemo::with_capacity(XPATH_MEMO_CAPACITY)
    }
}

impl XPathMemo {
    /// Empty memo with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty memo retaining at most `capacity` compiled expressions.
    pub fn with_capacity(capacity: usize) -> Self {
        XPathMemo {
            cache: RwLock::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Return the compiled form of `expr`, compiling on first sight.
    pub fn get_or_compile(&self, expr: &str) -> Result<Arc<XPath>, XPathError> {
        if let Some(hit) = self.cache.read().get(expr) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(XPath::compile(expr)?);
        let mut cache = self.cache.write();
        // Double-checked: another thread may have inserted meanwhile.
        if let Some(hit) = cache.get(expr) {
            return Ok(Arc::clone(hit));
        }
        if cache.len() < self.capacity {
            cache.insert(expr.to_owned(), Arc::clone(&compiled));
        }
        Ok(compiled)
    }

    /// Memo hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo misses (compiles) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of expressions currently cached.
    pub fn len(&self) -> usize {
        self.cache.read().len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for XPathMemo {
    fn clone(&self) -> Self {
        XPathMemo {
            cache: RwLock::new(self.cache.read().clone()),
            capacity: self.capacity,
            hits: AtomicU64::new(self.hits()),
            misses: AtomicU64::new(self.misses()),
        }
    }
}

impl fmt::Debug for XPathMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XPathMemo")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

struct Compiler<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Compiler<'a> {
    fn err(&self, message: &str) -> XPathError {
        XPathError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn compile(mut self) -> Result<XPath, XPathError> {
        let mut steps = Vec::new();
        // Leading '/' or '//' before the first step.
        let mut descendant = if self.eat(b'/') { self.eat(b'/') } else { false };
        loop {
            let step = self.parse_step(descendant)?;
            steps.push(step);
            match self.peek() {
                None => break,
                Some(b'/') => {
                    self.pos += 1;
                    descendant = self.eat(b'/');
                }
                Some(_) => return Err(self.err("expected '/' between steps")),
            }
        }
        if steps.is_empty() {
            return Err(self.err("empty expression"));
        }
        Ok(XPath { steps })
    }

    fn parse_step(&mut self, descendant: bool) -> Result<Step, XPathError> {
        let test = if self.eat(b'*') {
            NodeTest::Any
        } else {
            NodeTest::Name(self.parse_name()?)
        };
        let mut predicates = Vec::new();
        while self.eat(b'[') {
            predicates.push(self.parse_predicate()?);
            if !self.eat(b']') {
                return Err(self.err("expected ']'"));
            }
        }
        Ok(Step {
            descendant,
            test,
            predicates,
        })
    }

    fn parse_name(&mut self) -> Result<String, XPathError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("names are ASCII")
            .to_owned())
    }

    fn parse_predicate(&mut self) -> Result<Predicate, XPathError> {
        // Positional predicate: an integer.
        if self.peek().is_some_and(|c| c.is_ascii_digit()) {
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            let n: usize = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("digits are ASCII")
                .parse()
                .map_err(|_| self.err("position out of range"))?;
            if n == 0 {
                return Err(self.err("XPath positions are 1-based"));
            }
            return Ok(Predicate::Position(n));
        }

        let operand = if self.eat(b'@') {
            Operand::Attribute(self.parse_name()?)
        } else {
            let name = self.parse_name()?;
            if name == "text" && self.eat(b'(') {
                if !self.eat(b')') {
                    return Err(self.err("expected ')' after text("));
                }
                Operand::OwnText
            } else {
                Operand::ChildText(name)
            }
        };

        match self.peek() {
            Some(b']') => match operand {
                Operand::Attribute(a) => Ok(Predicate::AttributeExists(a)),
                _ => Err(self.err("bare predicate requires an attribute")),
            },
            Some(b'=') => {
                self.pos += 1;
                let literal = self.parse_literal()?;
                Ok(Predicate::Compare {
                    operand,
                    literal,
                    negated: false,
                })
            }
            Some(b'!') => {
                self.pos += 1;
                if !self.eat(b'=') {
                    return Err(self.err("expected '=' after '!'"));
                }
                let literal = self.parse_literal()?;
                Ok(Predicate::Compare {
                    operand,
                    literal,
                    negated: true,
                })
            }
            _ => Err(self.err("expected ']', '=' or '!=' in predicate")),
        }
    }

    fn parse_literal(&mut self) -> Result<String, XPathError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted literal")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("literal is not UTF-8"))?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse;

    fn doc() -> XmlNode {
        parse(
            r#"<Registry>
                 <Entry name="JPOVray" kind="concrete">
                   <Type>Imaging</Type>
                   <Deployment site="site1">jpovray</Deployment>
                   <Deployment site="site2">WS-JPOVray</Deployment>
                 </Entry>
                 <Entry name="Wien2k" kind="concrete">
                   <Type>Physics</Type>
                 </Entry>
                 <Entry name="Imaging" kind="abstract"/>
               </Registry>"#,
        )
        .unwrap()
    }

    #[test]
    fn absolute_child_path() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry").unwrap().select(&d);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn attribute_equality_predicate() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[@name='JPOVray']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("kind"), Some("concrete"));
    }

    #[test]
    fn attribute_inequality_predicate() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[@kind!='abstract']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn attribute_existence_predicate() {
        let d = doc();
        assert_eq!(
            XPath::compile("/Registry/Entry[@kind]").unwrap().select(&d).len(),
            3
        );
        assert_eq!(
            XPath::compile("/Registry/Entry[@nope]").unwrap().select(&d).len(),
            0
        );
    }

    #[test]
    fn child_text_predicate() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[Type='Imaging']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("name"), Some("JPOVray"));
    }

    #[test]
    fn own_text_predicate() {
        let d = doc();
        let hits = XPath::compile("//Deployment[text()='jpovray']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("site"), Some("site1"));
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        let hits = XPath::compile("//Deployment").unwrap().select(&d);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        let hits = XPath::compile("/Registry/*").unwrap().select(&d);
        assert_eq!(hits.len(), 3);
        let hits = XPath::compile("/*/Entry[2]").unwrap().select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("name"), Some("Wien2k"));
    }

    #[test]
    fn positional_predicate() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[1]").unwrap().select(&d);
        assert_eq!(hits[0].attribute("name"), Some("JPOVray"));
        let none = XPath::compile("/Registry/Entry[9]").unwrap().select(&d);
        assert!(none.is_empty());
    }

    #[test]
    fn chained_predicates() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[@kind='concrete'][Type='Physics']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("name"), Some("Wien2k"));
    }

    #[test]
    fn select_texts_extracts_content() {
        let d = doc();
        let texts = XPath::compile("/Registry/Entry[@name='JPOVray']/Deployment")
            .unwrap()
            .select_texts(&d);
        assert_eq!(texts, vec!["jpovray", "WS-JPOVray"]);
    }

    #[test]
    fn descendant_results_deduped() {
        let d = doc();
        // '//' from the root visits every node once; '//*' must not repeat.
        let all = XPath::compile("//*").unwrap().select(&d);
        assert_eq!(all.len(), d.subtree_size());
        // Two nested context nodes (the registry and an entry) both reach
        // the entry's deployments: this step still needs the dedup.
        let twice = XPath::compile("//*//Deployment").unwrap().select(&d);
        assert_eq!(twice.len(), 2);
    }

    #[test]
    fn relative_paths_start_at_root() {
        let d = doc();
        let hits = XPath::compile("Registry/Entry").unwrap().select(&d);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn compile_errors() {
        assert!(XPath::compile("").is_err());
        assert!(XPath::compile("/a[").is_err());
        assert!(XPath::compile("/a[@x='unterminated]").is_err());
        assert!(XPath::compile("/a[0]").is_err(), "positions are 1-based");
        assert!(XPath::compile("/a[Type]").is_err(), "bare child test invalid");
        assert!(XPath::compile("/a bad").is_err());
    }

    #[test]
    fn memo_caches_compiles() {
        let memo = XPathMemo::new();
        let a = memo.get_or_compile("//Entry[@name='X']").unwrap();
        let b = memo.get_or_compile("//Entry[@name='X']").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second fetch reuses the compiled form");
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 1);
        assert!(memo.get_or_compile("/a[").is_err());
        assert_eq!(memo.len(), 1, "errors are not cached");
    }

    #[test]
    fn memo_capacity_bounds_growth() {
        let memo = XPathMemo::with_capacity(2);
        for i in 0..10 {
            memo.get_or_compile(&format!("//E[@n='{i}']")).unwrap();
        }
        assert_eq!(memo.len(), 2, "overflow compiles are not inserted");
        // Overflow expressions still compile and evaluate correctly.
        let d = parse("<E n='7'/>").unwrap();
        let p = memo.get_or_compile("//E[@n='7']").unwrap();
        assert_eq!(p.select(&d).len(), 1);
    }

    #[test]
    fn memo_is_shareable_across_threads() {
        let memo = Arc::new(XPathMemo::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        memo.get_or_compile(&format!("//E[@n='{}']", i % 8)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(memo.len(), 8);
        assert_eq!(memo.hits() + memo.misses(), 400);
    }

    #[test]
    fn deep_nesting() {
        let d = parse("<a><b><c><d>leaf</d></c></b></a>").unwrap();
        let hits = XPath::compile("/a/b/c/d").unwrap().select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text, "leaf");
        let hits = XPath::compile("//d[text()='leaf']").unwrap().select(&d);
        assert_eq!(hits.len(), 1);
    }
}
