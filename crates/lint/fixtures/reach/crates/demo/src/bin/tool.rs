use demo::Greet;

fn main() {
    println!("{}", demo::used_by_bin().greet());
}
