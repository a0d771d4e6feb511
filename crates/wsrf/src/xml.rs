//! A small, dependency-free XML document model.
//!
//! WSRF resource property documents, EPRs, activity type entries and
//! deploy-files (paper Figs. 6, 7, 9) are all XML. This module implements
//! the subset those documents need: elements, attributes, character data,
//! comments (skipped), XML declarations (skipped) and the five predefined
//! entities. Namespaces are treated lexically (`ns:name` is just a name).
//!
//! The parser is kept deliberately simple and inspectable because the MDS
//! baseline's XPath-scan cost — the heart of the paper's Fig. 10/11
//! comparison — runs over these trees.

use std::borrow::Cow;
use std::fmt;

/// One XML element: name, attributes, child elements and concatenated text.
///
/// Element names and attribute keys are `Cow<'static, str>`: the literals
/// the model's `to_xml` methods emit are borrowed, so building or cloning
/// such a tree allocates nothing for them; names read by [`parse`] are
/// owned. Values and text are always owned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlNode {
    /// Element name (possibly `prefix:local`).
    pub name: Cow<'static, str>,
    /// Attributes in document order.
    pub attributes: Vec<(Cow<'static, str>, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element, trimmed.
    pub text: String,
}

impl XmlNode {
    /// New empty element.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        XmlNode {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Builder: set text content.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Builder: add a child element containing only text.
    pub fn child_text(self, name: impl Into<Cow<'static, str>>, text: impl Into<String>) -> Self {
        self.child(XmlNode::new(name).text(text))
    }

    /// Attribute value by name.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn first_child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child with the given name.
    pub fn child_text_of(&self, name: &str) -> Option<&str> {
        self.first_child(name).map(|c| c.text.as_str())
    }

    /// Total number of elements in the subtree (including self).
    pub fn subtree_size(&self) -> usize {
        1 + self.children.iter().map(XmlNode::subtree_size).sum::<usize>()
    }

    /// Serialize to a compact XML string (no declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.subtree_size() * 32);
        self.write(&mut out, 0, false);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::with_capacity(self.subtree_size() * 40);
        self.write(&mut out, 0, true);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        if pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            if pretty {
                out.push('\n');
            }
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            escape_into(&self.text, out);
        }
        if !self.children.is_empty() {
            if pretty {
                out.push('\n');
            }
            for c in &self.children {
                c.write(out, depth + 1, pretty);
            }
            if pretty {
                for _ in 0..depth {
                    out.push_str("  ");
                }
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
        if pretty {
            out.push('\n');
        }
    }
}

/// Append `s` to `out` with the five markup characters escaped; the runs
/// between them are copied whole.
fn escape_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'<' | b'>' | b'&' | b'"' | b'\''))
    {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Error from [`parse`], with byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parse a single-rooted XML document.
pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog();
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_misc();
    }

    /// Skip whitespace, comments, PIs and declarations between elements.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                if let Some(end) = find(self.bytes, self.pos, b"?>") {
                    self.pos = end + 2;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!--") {
                if let Some(end) = find(self.bytes, self.pos, b"-->") {
                    self.pos = end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!DOCTYPE") {
                // Skip to the closing '>' (no internal subset support).
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'>' {
                        break;
                    }
                }
                continue;
            }
            return;
        }
    }

    /// The name at the cursor, borrowed from the input.
    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
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
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("name bytes are ASCII"))
    }

    fn parse_element(&mut self) -> Result<XmlNode, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut node = XmlNode::new(name.to_owned());

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(node);
                }
                Some(_) => {
                    let key = self.parse_name()?.to_owned();
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"' | b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let quote = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("attribute value is not UTF-8"))?;
                    let mut value = String::with_capacity(raw.len());
                    unescape_into(raw, &mut value).map_err(|m| XmlError {
                        message: m,
                        offset: start,
                    })?;
                    self.pos += 1;
                    node.attributes.push((key.into(), value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        // Content.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end of input in element content")),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.close_tag(name)?;
                        node.text = trimmed(text);
                        return Ok(node);
                    } else if self.starts_with("<!--") {
                        match find(self.bytes, self.pos, b"-->") {
                            Some(end) => self.pos = end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                    } else if self.starts_with("<![CDATA[") {
                        let start = self.pos + 9;
                        match find(self.bytes, start, b"]]>") {
                            Some(end) => {
                                text.push_str(
                                    std::str::from_utf8(&self.bytes[start..end])
                                        .map_err(|_| self.err("CDATA is not UTF-8"))?,
                                );
                                self.pos = end + 3;
                            }
                            None => return Err(self.err("unterminated CDATA")),
                        }
                    } else if self.starts_with("<?") {
                        match find(self.bytes, self.pos, b"?>") {
                            Some(end) => self.pos = end + 2,
                            None => return Err(self.err("unterminated processing instruction")),
                        }
                    } else {
                        node.children.push(self.parse_element()?);
                    }
                }
                Some(_) => self.text_chunk(&mut text)?,
            }
        }
    }

    /// Consume the `</name>` closing the element opened as `open`,
    /// comparing the two names in the input.
    fn close_tag(&mut self, open: &str) -> Result<(), XmlError> {
        self.pos += 2;
        let close = self.parse_name()?;
        if close != open {
            return Err(self.err(&format!(
                "mismatched close tag: expected </{open}>, got </{close}>"
            )));
        }
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' in close tag"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Append the character data up to the next `<` to `text`, unescaped.
    fn text_chunk(&mut self, text: &mut String) -> Result<(), XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("text is not UTF-8"))?;
        unescape_into(raw, text).map_err(|m| XmlError {
            message: m,
            offset: start,
        })
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| from + i)
}

/// `text` without its surrounding whitespace; the buffer itself when
/// there is none to trim.
fn trimmed(text: String) -> String {
    let inner = text.trim();
    if inner.len() == text.len() {
        text
    } else {
        inner.to_owned()
    }
}

/// Append `s` to `out` with its entity and character references replaced;
/// text with no `&` is copied in one piece.
fn unescape_into(s: &str, out: &mut String) -> Result<(), String> {
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_owned())?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let cp = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad hex character reference &{entity};"))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| format!("invalid code point in &{entity};"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let cp: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| format!("invalid code point in &{entity};"))?,
                );
            }
            _ => return Err(format!("unknown entity &{entity};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_element() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.name, "a");
        assert!(doc.children.is_empty());
        assert!(doc.text.is_empty());
    }

    #[test]
    fn parse_nested_with_attributes_and_text() {
        let doc = parse(
            r#"<Build baseDir="/tmp/papers/" name="Povray">
                 <Step name="Init" timeout="10">hello</Step>
                 <Step name="Download"/>
               </Build>"#,
        )
        .unwrap();
        assert_eq!(doc.name, "Build");
        assert_eq!(doc.attribute("baseDir"), Some("/tmp/papers/"));
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.children[0].text, "hello");
        assert_eq!(doc.children[1].attribute("name"), Some("Download"));
    }

    #[test]
    fn parse_skips_declaration_and_comments() {
        let doc = parse(
            "<?xml version=\"1.0\"?><!-- header --><root><!-- inner -->\
             <x/></root><!-- trailer -->",
        )
        .unwrap();
        assert_eq!(doc.name, "root");
        assert_eq!(doc.children.len(), 1);
    }

    #[test]
    fn entities_round_trip() {
        let original = XmlNode::new("t")
            .attr("q", "a\"b<c>d&e")
            .text("x < y & z 'quoted'");
        let xml = original.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn numeric_character_references() {
        let doc = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.text, "AB");
    }

    #[test]
    fn cdata_preserved() {
        let doc = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>").unwrap();
        assert_eq!(doc.text, "1 < 2 && 3 > 2");
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched close tag"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_inputs_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("<a attr=\"x>").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn namespaced_names_are_lexical() {
        let doc = parse("<wsa:EndpointReference xmlns:wsa=\"uri\"/>").unwrap();
        assert_eq!(doc.name, "wsa:EndpointReference");
        assert_eq!(doc.attribute("xmlns:wsa"), Some("uri"));
    }

    #[test]
    fn builder_and_accessors() {
        let node = XmlNode::new("Deployment")
            .attr("name", "jpovray")
            .child_text("Path", "/opt/povray/bin/jpovray")
            .child_text("Type", "executable");
        assert_eq!(node.child_text_of("Path"), Some("/opt/povray/bin/jpovray"));
        assert_eq!(node.first_child("Type").unwrap().text, "executable");
        assert_eq!(node.children_named("Path").count(), 1);
        assert_eq!(node.subtree_size(), 3);
    }

    #[test]
    fn pretty_print_is_reparseable() {
        let node = XmlNode::new("root")
            .child(XmlNode::new("a").text("x"))
            .child(XmlNode::new("b").attr("k", "v"));
        let pretty = node.to_xml_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), node);
    }

    #[test]
    fn doctype_and_nested_pi_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE note SYSTEM \"x.dtd\">\n             <a><?pi data?><b/></a>",
        )
        .unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.children.len(), 1);
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a k='v' j='x\"y'/>").unwrap();
        assert_eq!(doc.attribute("k"), Some("v"));
        assert_eq!(doc.attribute("j"), Some("x\"y"));
    }

    #[test]
    fn whitespace_only_text_trimmed() {
        let doc = parse("<a>\n   \n<b/>\n</a>").unwrap();
        assert!(doc.text.is_empty());
    }

    #[test]
    fn text_interleaved_with_children_concatenates() {
        let doc = parse("<a>one<b/>two</a>").unwrap();
        assert_eq!(doc.text, "onetwo");
    }

    #[test]
    fn deeply_nested_survives() {
        let mut xml = String::new();
        for i in 0..200 {
            xml.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            xml.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&xml).unwrap();
        assert_eq!(doc.subtree_size(), 200);
    }

    #[test]
    fn deployment_epr_like_fig6_parses() {
        // Mirrors the paper's Fig. 6 structure.
        let xml = r#"
            <DeploymentEPR>
              <Address>https://138.232.1.2:8084/wsrf/services/ActivityDeploymentRegistry</Address>
              <ReferenceProperties>
                <ActivityDeploymentKey>jpovray</ActivityDeploymentKey>
                <LastUpdateTime>1120128000</LastUpdateTime>
              </ReferenceProperties>
              <ReferenceParameters/>
            </DeploymentEPR>"#;
        let doc = parse(xml).unwrap();
        let props = doc.first_child("ReferenceProperties").unwrap();
        assert_eq!(props.child_text_of("ActivityDeploymentKey"), Some("jpovray"));
        assert_eq!(doc.first_child("ReferenceParameters").unwrap().children.len(), 0);
    }
}
