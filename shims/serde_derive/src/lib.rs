//! Shim for `serde_derive`: derives the shim-serde `Serialize` trait
//! (convert to `serde::Value`) by parsing the item's token stream directly — no `syn`/`quote`, so it builds with zero
//! dependencies.
//!
//! Supported shapes (everything this workspace derives on):
//! - structs with named fields, tuple/newtype structs, unit structs
//! - enums with unit, tuple/newtype, and struct variants (externally
//!   tagged, matching real serde's default representation)
//! - type parameters without bounds (e.g. `CapabilityGrid<T>`)
//!
//! `#[serde(...)]` attributes are not interpreted (none exist in-tree).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match Item::parse(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    item.serialize_impl()
        .parse()
        .expect("generated Serialize impl must parse")
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error must parse")
}

enum Body {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Item {
    name: String,
    generics: Vec<String>,
    body: Body,
}

impl Item {
    fn parse(input: TokenStream) -> Result<Item, String> {
        let tokens: Vec<TokenTree> = input.into_iter().collect();
        let mut pos = 0usize;
        skip_attrs_and_vis(&tokens, &mut pos);

        let keyword = expect_ident(&tokens, &mut pos)?;
        let is_enum = match keyword.as_str() {
            "struct" => false,
            "enum" => true,
            other => return Err(format!("serde shim derive: unsupported item `{other}`")),
        };
        let name = expect_ident(&tokens, &mut pos)?;
        let generics = parse_generics(&tokens, &mut pos)?;
        skip_where_clause(&tokens, &mut pos);

        let body = if is_enum {
            match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Enum(parse_variants(g.stream())?)
                }
                _ => return Err("serde shim derive: enum body not found".into()),
            }
        } else {
            match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
                _ => return Err("serde shim derive: struct body not found".into()),
            }
        };

        Ok(Item {
            name,
            generics,
            body,
        })
    }

    fn impl_header(&self) -> (String, String) {
        if self.generics.is_empty() {
            (String::new(), String::new())
        } else {
            let bounded: Vec<String> = self
                .generics
                .iter()
                .map(|g| format!("{g}: ::serde::Serialize"))
                .collect();
            (
                format!("<{}>", bounded.join(", ")),
                format!("<{}>", self.generics.join(", ")),
            )
        }
    }

    fn serialize_impl(&self) -> String {
        let (bounds, args) = self.impl_header();
        let name = &self.name;
        let body = match &self.body {
            Body::Unit => "::serde::Value::Null".to_string(),
            // serde's newtype-struct representation: just the inner value.
            Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
            Body::Tuple(n) => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
            }
            Body::Named(fields) => {
                let entries: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                        )
                    })
                    .collect();
                format!(
                    "::serde::Value::Object(::std::vec![{}])",
                    entries.join(", ")
                )
            }
            Body::Enum(variants) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        let vname = &v.name;
                        match &v.shape {
                            VariantShape::Unit => format!(
                                "{name}::{vname} => ::serde::Value::Str(::std::string::String::from({vname:?})),"
                            ),
                            VariantShape::Tuple(1) => format!(
                                "{name}::{vname}(f0) => ::serde::Value::Object(::std::vec![(::std::string::String::from({vname:?}), ::serde::Serialize::to_value(f0))]),"
                            ),
                            VariantShape::Tuple(n) => {
                                let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                                let elems: Vec<String> = binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect();
                                format!(
                                    "{name}::{vname}({}) => ::serde::Value::Object(::std::vec![(::std::string::String::from({vname:?}), ::serde::Value::Array(::std::vec![{}]))]),",
                                    binds.join(", "),
                                    elems.join(", ")
                                )
                            }
                            VariantShape::Named(fields) => {
                                let entries: Vec<String> = fields
                                    .iter()
                                    .map(|f| {
                                        format!(
                                            "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                                        )
                                    })
                                    .collect();
                                format!(
                                    "{name}::{vname} {{ {} }} => ::serde::Value::Object(::std::vec![(::std::string::String::from({vname:?}), ::serde::Value::Object(::std::vec![{}]))]),",
                                    fields.join(", "),
                                    entries.join(", ")
                                )
                            }
                        }
                    })
                    .collect();
                format!("match self {{ {} }}", arms.join(" "))
            }
        };
        format!(
            "impl{bounds} ::serde::Serialize for {name}{args} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
        )
    }
}

/// Skips outer attributes (`#[...]`, incl. doc comments) and visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1; // '#'
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    *pos += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1; // pub(crate) / pub(super)
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> Result<String, String> {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(id)) => {
            *pos += 1;
            Ok(id.to_string())
        }
        other => Err(format!(
            "serde shim derive: expected identifier, found {other:?}"
        )),
    }
}

/// Parses `<A, B, ...>` into the list of type-parameter names. Lifetimes
/// and const generics are rejected; bounds after `:` are skipped.
fn parse_generics(tokens: &[TokenTree], pos: &mut usize) -> Result<Vec<String>, String> {
    let mut params = Vec::new();
    match tokens.get(*pos) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => *pos += 1,
        _ => return Ok(params),
    }
    let mut depth = 1usize;
    let mut expecting_param = true;
    while depth > 0 {
        let tok = tokens
            .get(*pos)
            .ok_or("serde shim derive: unterminated generics")?;
        *pos += 1;
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => expecting_param = true,
            TokenTree::Punct(p) if p.as_char() == '\'' => {
                return Err("serde shim derive: lifetime generics unsupported".into())
            }
            TokenTree::Ident(id) if depth == 1 && expecting_param => {
                let s = id.to_string();
                if s == "const" {
                    return Err("serde shim derive: const generics unsupported".into());
                }
                params.push(s);
                expecting_param = false;
            }
            _ => {}
        }
    }
    Ok(params)
}

fn skip_where_clause(tokens: &[TokenTree], pos: &mut usize) {
    if !matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        return;
    }
    while let Some(tok) = tokens.get(*pos) {
        match tok {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => return,
            TokenTree::Punct(p) if p.as_char() == ';' => return,
            _ => *pos += 1,
        }
    }
}

/// Parses `{ field: Type, ... }` field names, skipping attrs/visibility
/// and type tokens (angle-bracket aware; delimiter groups are atomic).
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0usize;
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let fname = expect_ident(&tokens, &mut pos)?;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                return Err(format!(
                    "serde shim derive: expected `:` after field `{fname}`, found {other:?}"
                ))
            }
        }
        fields.push(fname);
        // Skip the type up to the next top-level comma.
        let mut angle_depth = 0usize;
        while let Some(tok) = tokens.get(pos) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1)
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
    }
    Ok(fields)
}

/// Counts comma-separated fields of a tuple struct / tuple variant.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1usize;
    let mut angle_depth = 0usize;
    let mut saw_trailing_comma = false;
    for tok in &tokens {
        saw_trailing_comma = false;
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1)
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_trailing_comma = true;
            }
            _ => {}
        }
    }
    if saw_trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0usize;
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let vname = expect_ident(&tokens, &mut pos)?;
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantShape::Named(parse_named_fields(g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separating comma.
        while let Some(tok) = tokens.get(pos) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    pos += 1;
                    break;
                }
                _ => pos += 1,
            }
        }
        variants.push(Variant { name: vname, shape });
    }
    Ok(variants)
}
