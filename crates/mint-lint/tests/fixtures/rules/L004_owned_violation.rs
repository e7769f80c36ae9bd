use std::collections::HashMap;

// The shape of the pre-spine `SpanParser::parse`: one owned key per attribute
// for the parser table, one for the pattern, a lowered copy for the sampler.
// mint-lint: hot
fn hot_parse(attrs: &[(&str, &str)], parsers: &mut HashMap<String, u32>) -> Vec<(String, String)> {
    let mut pattern = Vec::with_capacity(attrs.len());
    for (key, value) in attrs {
        *parsers.entry(key.to_owned()).or_default() += 1;
        pattern.push((key.to_owned(), value.to_ascii_lowercase()));
    }
    pattern
}
