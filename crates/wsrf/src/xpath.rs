//! The XPath subset the Index Service is asked, over [`XmlNode`] trees.
//!
//! GT4's Index Service answers queries "by using standard XPath-based
//! querying mechanism" (§3.1); GLARE's registries support the same queries
//! but short-circuit *named* lookups through a hash table. This module is
//! the XPath engine both sides share. It parses what callers send — a
//! by-name query `//{element}[@name='{name}']`, a child-element test, an
//! absolute child path — and refuses the rest of XPath (`*`, positions,
//! `!=`, `text()`, attribute tests, `//` after the first step) with an
//! [`XPathError`]:
//!
//! ```text
//! path      := ('/' | '//')? step ('/' step)*
//! step      := NAME predicate?
//! predicate := '[' ('@' NAME | NAME) '=' literal ']'
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
    /// `true` for a leading `//`: the first step matches anywhere in the
    /// document; each later step matches children only.
    descendant: bool,
    /// Never empty.
    steps: Vec<Step>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Step {
    name: String,
    predicate: Option<Predicate>,
}

/// `[@attribute='literal']` or `[child='literal']`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Predicate {
    operand: Operand,
    literal: String,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Operand {
    Attribute(String),
    ChildText(String),
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
    /// `/RootName/...` works as in a real document). Only the first step
    /// can search descendants, from the root alone, and each later step
    /// maps distinct parents to disjoint children: no node is reached twice.
    pub fn select<'a>(&self, root: &'a XmlNode) -> Vec<&'a XmlNode> {
        let (first, rest) = self.steps.split_first().expect("a path has a step");
        let mut current = Vec::new();
        if self.descendant {
            first.descendants_or_self(root, &mut current);
        } else if first.matches(root) {
            current.push(root);
        }
        for step in rest {
            current = current
                .iter()
                .flat_map(|node| node.children.iter().filter(|c| step.matches(c)))
                .collect();
        }
        current
    }
}

impl Step {
    fn matches(&self, node: &XmlNode) -> bool {
        node.name == self.name && self.predicate.as_ref().is_none_or(|p| p.holds(node))
    }

    /// Push every node of `node`'s subtree that the step matches, `node`
    /// itself first, in document order. Every node is still visited; only
    /// the ones that match are kept.
    fn descendants_or_self<'a>(&self, node: &'a XmlNode, out: &mut Vec<&'a XmlNode>) {
        if self.matches(node) {
            out.push(node);
        }
        for c in &node.children {
            self.descendants_or_self(c, out);
        }
    }
}

impl Predicate {
    fn holds(&self, node: &XmlNode) -> bool {
        let value = match &self.operand {
            Operand::Attribute(a) => node.attribute(a),
            Operand::ChildText(c) => node.child_text_of(c),
        };
        value == Some(self.literal.as_str())
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
pub(crate) const XPATH_MEMO_CAPACITY: usize = 1024;

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
    pub(crate) fn with_capacity(capacity: usize) -> Self {
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
    pub(crate) fn len(&self) -> usize {
        self.cache.read().len()
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
        // Leading '/' or '//' before the first step.
        let descendant = self.eat(b'/') && self.eat(b'/');
        let mut steps = vec![self.parse_step()?];
        while self.peek().is_some() {
            if !self.eat(b'/') {
                return Err(self.err("expected '/' between steps"));
            }
            if self.peek() == Some(b'/') {
                return Err(self.err("only the first step may search descendants"));
            }
            steps.push(self.parse_step()?);
        }
        Ok(XPath { descendant, steps })
    }

    fn parse_step(&mut self) -> Result<Step, XPathError> {
        let name = self.parse_name()?;
        let predicate = if self.eat(b'[') {
            Some(self.parse_predicate()?)
        } else {
            None
        };
        Ok(Step { name, predicate })
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

    /// The rest of a predicate, after its `[`.
    fn parse_predicate(&mut self) -> Result<Predicate, XPathError> {
        let operand = if self.eat(b'@') {
            Operand::Attribute(self.parse_name()?)
        } else {
            Operand::ChildText(self.parse_name()?)
        };
        if !self.eat(b'=') {
            return Err(self.err("expected '=' in predicate"));
        }
        let literal = self.parse_literal()?;
        if !self.eat(b']') {
            return Err(self.err("expected ']'"));
        }
        Ok(Predicate { operand, literal })
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
    fn child_text_predicate() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[Type='Imaging']")
            .unwrap()
            .select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attribute("name"), Some("JPOVray"));
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        let hits = XPath::compile("//Deployment").unwrap().select(&d);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn select_texts_extracts_content() {
        let d = doc();
        let hits = XPath::compile("/Registry/Entry[@name='JPOVray']/Deployment")
            .unwrap()
            .select(&d);
        let texts: Vec<&str> = hits.iter().map(|n| n.text.as_str()).collect();
        assert_eq!(texts, vec!["jpovray", "WS-JPOVray"]);
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

    /// Each form of XPath that no caller sends is refused, where it starts.
    #[test]
    fn removed_forms_are_refused() {
        for (expr, offset, message) in [
            ("//*", 2, "expected a name"),
            ("/a[1]", 4, "expected '=' in predicate"),
            ("/a[@k]", 5, "expected '=' in predicate"),
            ("/a[@k!='v']", 5, "expected '=' in predicate"),
            ("/a[text()='v']", 7, "expected '=' in predicate"),
            ("/a//b", 3, "only the first step may search descendants"),
            ("/a[@k='v'][b='w']", 10, "expected '/' between steps"),
        ] {
            let err = XPath::compile(expr).expect_err(expr);
            assert_eq!((err.offset, err.message.as_str()), (offset, message), "{expr}");
        }
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

    /// The evaluator before the walk filtered as it went: gather every
    /// candidate of a context node, test names, then apply the predicate
    /// to that list.
    fn collect_then_filter<'a>(xpath: &XPath, root: &'a XmlNode) -> Vec<&'a XmlNode> {
        fn collect<'a>(node: &'a XmlNode, out: &mut Vec<&'a XmlNode>) {
            out.push(node);
            for c in &node.children {
                collect(c, out);
            }
        }
        let mut current = vec![root];
        for (i, step) in xpath.steps.iter().enumerate() {
            let mut next = Vec::new();
            for &node in &current {
                let mut candidates = Vec::new();
                if i == 0 && xpath.descendant {
                    collect(node, &mut candidates);
                } else if i == 0 {
                    candidates.push(node);
                } else {
                    candidates.extend(node.children.iter());
                }
                candidates.retain(|n| n.name == step.name);
                if let Some(Predicate { operand, literal }) = &step.predicate {
                    candidates.retain(|n| {
                        let value = match operand {
                            Operand::Attribute(a) => n.attribute(a),
                            Operand::ChildText(c) => n.child_text_of(c),
                        };
                        value == Some(literal.as_str())
                    });
                }
                next.extend(candidates);
            }
            current = next;
        }
        current
    }

    /// Three names, so that same-name elements nest; two attributes and
    /// two values, so that every predicate both holds and fails.
    fn arb_tree(rng: &mut glare_fabric::SimRng, depth: u32) -> XmlNode {
        const NAMES: [&str; 3] = ["a", "b", "c"];
        let mut node = XmlNode::new(NAMES[rng.index(3)]);
        for key in ["x", "y"] {
            if rng.chance(0.4) {
                node = node.attr(key, ["1", "2"][rng.index(2)]);
            }
        }
        if rng.chance(0.3) {
            node = node.text(["1", "2"][rng.index(2)]);
        }
        if depth > 0 {
            for _ in 0..rng.range(0, 4) {
                node = node.child(arb_tree(rng, depth - 1));
            }
        }
        node
    }

    /// An expression drawn from the grammar in the module doc: a relative,
    /// absolute or `//` first step, then up to two child steps, each with
    /// at most one `=` predicate on an attribute or a child's text.
    fn arb_expr(rng: &mut glare_fabric::SimRng) -> String {
        const PREDICATES: [&str; 6] = ["", "", "[@x='1']", "[@y='2']", "[b='1']", "[c='2']"];
        let mut expr = ["", "/", "//", "//"][rng.index(4)].to_owned();
        for step in 0..rng.range(1, 4) {
            if step > 0 {
                expr.push('/');
            }
            expr.push_str(["a", "b", "c"][rng.index(3)]);
            expr.push_str(PREDICATES[rng.index(PREDICATES.len())]);
        }
        expr
    }

    /// Seeded property: on random trees, `select` returns the same nodes,
    /// by identity and in the same order, as the collect-then-filter
    /// evaluator it replaced, and no node twice. Fails if the walk skips
    /// its context node or a step reaches a node by two paths.
    #[test]
    fn filtering_walk_equals_collect_then_filter() {
        let identities = |nodes: Vec<&XmlNode>| -> Vec<*const XmlNode> {
            nodes.into_iter().map(|n| n as *const XmlNode).collect()
        };
        let mut rng = glare_fabric::SimRng::from_seed(0x5E1EC7);
        let mut nonempty = 0;
        for _ in 0..400 {
            let tree = arb_tree(&mut rng, 4);
            for _ in 0..20 {
                let expr = arb_expr(&mut rng);
                let xpath = XPath::compile(&expr).expect("the generator follows the grammar");
                let walked = identities(xpath.select(&tree));
                nonempty += usize::from(!walked.is_empty());
                let distinct: std::collections::HashSet<_> = walked.iter().collect();
                assert_eq!(distinct.len(), walked.len(), "{expr} repeats a node");
                assert_eq!(
                    walked,
                    identities(collect_then_filter(&xpath, &tree)),
                    "{expr} over {}",
                    tree.to_xml()
                );
            }
        }
        // 1 019 of the 8 000 at this seed.
        assert!(
            nonempty > 800,
            "a tenth of the expressions select something: {nonempty}"
        );
    }

    #[test]
    fn deep_nesting() {
        let d = parse("<a><b><c><d>leaf</d></c></b></a>").unwrap();
        let hits = XPath::compile("/a/b/c/d").unwrap().select(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text, "leaf");
    }
}
