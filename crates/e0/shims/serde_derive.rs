//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` expand to impls that keep the stand-in
//! traits' default ("unsupported") methods, and accept `#[serde(..)]`
//! field attributes. Handles the shapes the workspace derives on:
//! structs and enums whose generics are plain lifetimes or type names.

extern crate proc_macro;

use proc_macro::{TokenStream, TokenTree};

/// `(name, generics)` of the item, generics as written (`<'a>`) or "".
fn item_header(input: TokenStream) -> (String, String) {
    let mut tokens = input.into_iter();
    for t in tokens.by_ref() {
        if matches!(&t, TokenTree::Ident(i) if matches!(i.to_string().as_str(), "struct" | "enum"))
        {
            break;
        }
    }
    let name = tokens.next().map(|t| t.to_string()).unwrap_or_default();
    let mut generics = String::new();
    let mut depth = 0usize;
    for t in tokens {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    generics.push('>');
                    break;
                }
            }
            _ if depth == 0 => break,
            _ => {}
        }
        generics.push_str(&t.to_string());
    }
    (name, generics)
}

fn inert_impl(trait_name: &str, input: TokenStream) -> TokenStream {
    let (name, generics) = item_header(input);
    format!("impl{generics} ::serde::{trait_name} for {name}{generics} {{}}")
        .parse()
        .unwrap_or_default()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    inert_impl("Serialize", input)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    inert_impl("Deserialize", input)
}
