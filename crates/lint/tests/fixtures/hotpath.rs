//! FSS003 fixture: allocating calls flagged only between the hot-path
//! markers, and never inside strings or comments.
pub fn cold(xs: &[u32]) {
    let _v: Vec<u32> = Vec::new();
    let _c: Vec<u32> = xs.iter().copied().collect();
}

// fss-lint: hot-path
pub fn hot(xs: &[u32], scratch: &mut Vec<u32>) {
    let _bad: Vec<u32> = Vec::new(); //~ FSS003
    let _bad2 = vec![1, 2]; //~ FSS003
    let _bad3: Vec<u32> = xs.iter().copied().collect(); //~ FSS003
    let _quiet = "Vec::new() inside a string";
    // vec![quiet] inside a comment
    scratch.clear();
    scratch.push(1);
}
// fss-lint: end

pub fn cold_again() {
    let _ = format!("allocations are fine outside regions");
}
