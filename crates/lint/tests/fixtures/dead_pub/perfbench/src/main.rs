fn main() {
    println!("{}", le_fixture::USED_BY_BENCH);
}
