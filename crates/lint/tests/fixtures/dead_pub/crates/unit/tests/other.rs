#[test]
fn uses_the_library() {
    assert_eq!(le_fixture::used_by_other_test(), 4);
}
