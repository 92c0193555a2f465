// Lint fixture data, not code: this call keeps nothing alive.
pub fn stale() -> u32 {
    le_fixture::only_own_tests()
}
