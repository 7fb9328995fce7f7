fn main() {
    println!("{}", demo::used_by_example());
}
