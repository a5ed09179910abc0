//! Shorthands for building [`Json`] documents.

pub use simtrace::json::Json;

/// An object with the given members, in order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string.
pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// An array of strings.
pub fn texts<S: AsRef<str>>(items: &[S]) -> Json {
    Json::Arr(items.iter().map(|s| text(s.as_ref())).collect())
}

/// An array of numbers.
pub fn nums(items: &[f64]) -> Json {
    Json::Arr(items.iter().map(|&x| Json::Num(x)).collect())
}
