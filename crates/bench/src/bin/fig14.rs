//! Reproduce Figure 14: SpecJBB response time under transparent vs hybrid
//! memory deflation.
fn main() {
    deflate_bench::apps_exp::fig14().print();
}
