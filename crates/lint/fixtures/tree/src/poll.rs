//! `sleep-poll` fixture: the one sleep inside a loop of non-test code
//! (line 9) is reported; a sleep outside any loop, one in an impl whose
//! header names a trait `for` a type, and one in a test loop are not.

use std::time::Duration;

fn wait_for(flag: &Flag) {
    while !flag.is_set() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn pause_once() {
    std::thread::sleep(Duration::from_millis(1));
}

impl Iterator for Ticks {
    type Item = u8;
    fn next(&mut self) -> Option<u8> {
        std::thread::sleep(Duration::from_millis(1));
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn spins() {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
