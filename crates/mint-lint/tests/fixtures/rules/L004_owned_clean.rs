use std::collections::HashMap;

// Ids probed by borrowed `&str`; the owned key is made on the cold path only.
// mint-lint: hot
fn hot_parse(attrs: &[(&str, &str)], ids: &mut HashMap<String, u32>, key: &mut Vec<u32>) {
    key.clear();
    for (name, _) in attrs {
        let id = match ids.get(*name) {
            Some(&id) => id,
            None => learn(name, ids),
        };
        key.push(id);
    }
}

fn learn(name: &str, ids: &mut HashMap<String, u32>) -> u32 {
    // Not in the hot set: owning the new key is the point.
    let id = ids.len() as u32 + 1;
    ids.insert(name.to_owned(), id);
    id
}

// A local named like the method is not a call.
// mint-lint: hot
fn hot_names(to_owned: u32, to_ascii_lowercase: u32) -> u32 {
    to_owned + to_ascii_lowercase
}
