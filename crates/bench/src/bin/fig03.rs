//! Reproduce Figure 3: application performance under uniform deflation.
fn main() {
    deflate_bench::apps_exp::fig03().print();
}
