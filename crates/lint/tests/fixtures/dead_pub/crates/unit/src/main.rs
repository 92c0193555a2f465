fn main() {
    println!("{}", le_fixture::called_by_bin());
}
