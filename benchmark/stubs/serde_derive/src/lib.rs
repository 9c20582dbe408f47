//! No-op derives. The FAB crates derive `Serialize`/`Deserialize` on their
//! protocol types but never call a serializer (the wire and log formats
//! are hand-rolled), so an empty expansion keeps them compiling offline.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
