//! Derive macros for the in-tree `serde` shim.
//!
//! Implemented without `syn`/`quote` (unavailable offline): the item is
//! parsed directly from the [`proc_macro::TokenStream`] and the impl is
//! emitted as source text. Supported shapes — the only ones the workspace
//! derives — are:
//!
//! * structs with named fields,
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays),
//! * enums whose variants are unit, newtype, or struct-like (encoded
//!   externally tagged, exactly like real serde's JSON default).
//!
//! `Serialize` impls stream JSON through `serde::Encoder`. Field and
//! variant names are JSON-encoded once, here at expansion time, and
//! written as literals. A struct or struct variant has two bodies built
//! from one field list: pretty mode makes one encoder call per bracket,
//! key and separator, and compact mode writes each constant run between
//! values, such as `{"Arrival":{"t":` or `,"job":`, in one call.
//! `Deserialize` impls pull tokens from `serde::Decoder` and match object
//! keys and variant tags, borrowed from the input, against the names as
//! string patterns. Generics, `where` clauses and `#[serde(...)]`
//! attributes are not supported and panic at expansion time with a clear
//! message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render(&item, Mode::Serialize)
}

/// Derives the shim's `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render(&item, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Item {
    name: String,
    shape: Shape,
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = expect_ident(&tokens, &mut i, "expected `struct` or `enum`");
    let name = expect_ident(&tokens, &mut i, "expected type name");
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) => g,
        _ if kind == "struct" => panic!("serde shim derive: unit struct `{name}` unsupported"),
        _ => panic!("serde shim derive: malformed item `{name}`"),
    };
    let shape = match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => Shape::NamedStruct(parse_named_fields(body.stream())),
        ("struct", Delimiter::Parenthesis) => Shape::TupleStruct(count_tuple_fields(body.stream())),
        ("enum", Delimiter::Brace) => Shape::Enum(parse_variants(body.stream())),
        _ => panic!("serde shim derive: unsupported item shape for `{name}`"),
    };
    Item { name, shape }
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*i), tokens.get(*i + 1))
    {
        if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket {
            *i += 2;
        } else {
            break;
        }
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize, msg: &str) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: {msg}, got {other:?}"),
    }
}

/// Skips a type (or any expression) up to a top-level `,`, tracking angle
/// bracket depth so `Vec<(A, B)>`-style commas don't terminate early.
/// Leaves `i` on the comma (or at the end).
fn skip_until_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i, "expected field name");
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_until_comma(&tokens, &mut i);
        i += 1; // consume the comma (or step past the end)
        fields.push(name);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_until_comma(&tokens, &mut i);
        count += 1;
        i += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i, "expected variant name");
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let k = VariantKind::Named(parse_named_fields(g.stream()));
                i += 1;
                k
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let k = VariantKind::Tuple(count_tuple_fields(g.stream()));
                i += 1;
                k
            }
            _ => VariantKind::Unit,
        };
        // Skip any explicit discriminant, then the separating comma.
        skip_until_comma(&tokens, &mut i);
        i += 1;
        variants.push(Variant { name, kind });
    }
    variants
}

// ------------------------------------------------------------ generation

fn render(item: &Item, mode: Mode) -> TokenStream {
    let code = match mode {
        Mode::Serialize => render_serialize(item),
        Mode::Deserialize => render_deserialize(item),
    };
    code.parse()
        .expect("serde shim derive: generated code parses")
}

/// A Rust string literal holding `name` as a JSON string, quotes
/// included, so generated code writes field and variant names without
/// encoding them at run time. Names are identifiers, which never need a
/// JSON escape.
fn json_literal(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

/// Statements writing a JSON object with one member per field, each
/// value read from the expression `{access}{field}`, wrapped as
/// `{"tag": {..}}` when `tag` names a struct variant.
///
/// Pretty mode builds the object call by call. Compact mode writes the
/// bytes between values as whole runs, `{"tag":{"f0":`, `,"f1":`, …,
/// `}}`; `Encoder::end_literal` leaves the encoder's state as the
/// closing `end_object` would.
fn object(tag: Option<&str>, fields: &[String], access: &str) -> String {
    let mut pretty = String::from("__enc.begin_object();");
    for f in fields {
        pretty.push_str(&format!(
            " __enc.field({}); ::serde::Serialize::serialize({access}{f}, __enc);",
            json_literal(f)
        ));
    }
    pretty.push_str(" __enc.end_object();");
    let mut compact = String::new();
    let mut run = String::from("{");
    if let Some(tag) = tag {
        pretty = tagged(tag, &pretty);
        run = format!("{{\"{tag}\":{{");
    }
    for (k, f) in fields.iter().enumerate() {
        if k > 0 {
            run.push(',');
        }
        run.push_str(&format!("\"{f}\":"));
        compact.push_str(&format!(
            " __enc.literal({run:?}); ::serde::Serialize::serialize({access}{f}, __enc);"
        ));
        run.clear();
    }
    run.push_str(if tag.is_some() { "}}" } else { "}" });
    compact.push_str(&format!(" __enc.end_literal({run:?});"));
    format!("if __enc.is_pretty() {{ {pretty} }} else {{{compact} }}")
}

/// Statements writing a JSON array of `exprs`.
fn array(exprs: &[String]) -> String {
    let mut code = String::from("__enc.begin_array();");
    for expr in exprs {
        code.push_str(&format!(
            " __enc.element(); ::serde::Serialize::serialize({expr}, __enc);"
        ));
    }
    code.push_str(" __enc.end_array();");
    code
}

/// Statements writing `inner` as the payload of an externally tagged
/// variant: `{"Variant": inner}`.
fn tagged(vname: &str, inner: &str) -> String {
    format!(
        "__enc.begin_object(); __enc.field({}); {inner} __enc.end_object();",
        json_literal(vname)
    )
}

fn render_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => object(None, fields, "&self."),
        Shape::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __enc);".to_string(),
        Shape::TupleStruct(n) => {
            let exprs: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
            array(&exprs)
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| serialize_arm(name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<__W: ::std::io::Write>(&self, __enc: &mut ::serde::Encoder<__W>) {{ {body} }}\n\
         }}"
    )
}

fn serialize_arm(name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.kind {
        VariantKind::Unit => format!("{name}::{vname} => __enc.literal({}),", json_literal(vname)),
        VariantKind::Named(fields) => format!(
            "{name}::{vname} {{ {} }} => {{ {} }}",
            fields.join(", "),
            object(Some(vname), fields, "")
        ),
        VariantKind::Tuple(n) => {
            let binders: Vec<String> = (0..*n).map(|k| format!("x{k}")).collect();
            let inner = if *n == 1 {
                "::serde::Serialize::serialize(x0, __enc);".to_string()
            } else {
                array(&binders)
            };
            format!(
                "{name}::{vname}({}) => {{ {} }}",
                binders.join(", "),
                tagged(vname, &inner)
            )
        }
    }
}

fn render_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => named_fields(name, fields),
        Shape::TupleStruct(1) => {
            format!("{name}(::serde::Deserialize::deserialize(__de)?)")
        }
        Shape::TupleStruct(n) => tuple_fields(name, *n),
        Shape::Enum(variants) => render_enum_deserialize(name, variants),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__de: &mut ::serde::Decoder<'_>) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 ::std::result::Result::Ok({body})\n\
             }}\n\
         }}"
    )
}

/// An expression reading a JSON object into `path { fields }`, where
/// `path` names the struct or struct variant. Keys are matched as
/// borrowed slices; the first occurrence of a key wins, later ones and
/// unknown keys are skipped (syntax still checked), and a missing field
/// is an error naming `path`.
fn named_fields(path: &str, fields: &[String]) -> String {
    if fields.is_empty() {
        return format!("{{ __de.skip_value()?; {path} {{}} }}");
    }
    let mut decls = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (k, f) in fields.iter().enumerate() {
        decls.push_str(&format!("let mut __f{k} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{f}\" if __f{k}.is_none() => \
                 __f{k} = ::std::option::Option::Some(__de.field(\"{path}\", \"{f}\")?),\n"
        ));
        inits.push(format!(
            "{f}: match __f{k} {{\n\
                 ::std::option::Option::Some(__v) => __v,\n\
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                     ::serde::Error::missing_field(\"{path}\", \"{f}\")),\n\
             }}"
        ));
    }
    format!(
        "{{\n\
             {decls}\
             if __de.begin_object()? {{\n\
                 while let ::std::option::Option::Some(__k) = __de.next_key()? {{\n\
                     match &*__k {{\n\
                         {arms}\
                         _ => __de.skip_value()?,\n\
                     }}\n\
                 }}\n\
             }}\n\
             {path} {{ {} }}\n\
         }}",
        inits.join(", ")
    )
}

/// An expression reading a JSON array of exactly `n` items into
/// `path(..)`; any other shape is an error naming `path`.
fn tuple_fields(path: &str, n: usize) -> String {
    let items: Vec<&str> = vec!["__de.tuple_element(__t)?"; n];
    format!(
        "{{\n\
             let __t = __de.begin_tuple(\"{path}: expected {n}-element array\")?;\n\
             let __v = {path}({});\n\
             __de.end_tuple(__t)?;\n\
             __v\n\
         }}",
        items.join(", ")
    )
}

fn render_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let vname = &v.name;
        let path = format!("{name}::{vname}");
        let read = match &v.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!("\"{vname}\" => {path},\n"));
                continue;
            }
            VariantKind::Named(fields) => named_fields(&path, fields),
            VariantKind::Tuple(1) => format!("{path}(::serde::Deserialize::deserialize(__de)?)"),
            VariantKind::Tuple(n) => tuple_fields(&path, *n),
        };
        tagged_arms.push_str(&format!("\"{vname}\" => {read},\n"));
    }
    let unknown =
        format!("return ::std::result::Result::Err(__de.unknown_variant(__start, \"{name}\"))");
    // Without data-carrying variants every tag is unknown.
    let tagged = if tagged_arms.is_empty() {
        format!("{unknown},")
    } else {
        format!(
            "{{\n\
                 let __v = match &*__tag {{\n\
                     {tagged_arms}\
                     _ => {unknown},\n\
                 }};\n\
                 __de.end_variant(__start, \"{name}\")?;\n\
                 __v\n\
             }}"
        )
    };
    format!(
        "match __de.variant(\"{name}\")? {{\n\
             ::serde::Variant::Unit(__s) => match &*__s {{\n\
                 {unit_arms}\
                 __other => return ::std::result::Result::Err(::serde::Error(::std::format!(\
                     \"unknown unit variant `{{}}` for {name}\", __other))),\n\
             }},\n\
             ::serde::Variant::Tagged(__tag, __start) => {tagged}\n\
         }}"
    )
}
