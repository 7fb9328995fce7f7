//! Usage policies.
//!
//! Field 19 of the paper's resource-database record is "designed to point to
//! a PUNCH metaprogram that would allow administrators to specify complex
//! usage policies (e.g. public users are only allowed to access this machine
//! if its load is below a specified threshold)" — the paper notes the field
//! was not yet implemented.  We implement the capability with a small,
//! composable predicate language that covers the examples the paper gives
//! while remaining easy to evaluate inside the scheduling hot path.

/// The evaluation context a policy sees: who is asking and what the machine
/// currently looks like.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    /// Access group of the requesting user (e.g. `ece`, `public`).
    pub user_group: &'a str,
    /// Login of the requesting user.
    pub user_login: &'a str,
    /// Current load average of the machine.
    pub current_load: f64,
    /// Hour of (virtual) day, 0–23, for time-of-day policies.
    pub hour_of_day: u8,
}

/// An administrator-defined usage policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum UsagePolicy {
    /// Admit everyone (the database default when no policy is configured).
    #[default]
    Always,
    /// Admit no one (machine reserved, e.g. during maintenance).
    Never,
    /// Admit only if the current load is strictly below the threshold.
    LoadBelow(f64),
    /// Admit only members of one of the listed access groups.
    GroupIn(Vec<String>),
    /// Admit every group except the listed ones.
    GroupNotIn(Vec<String>),
    /// Admit only the listed logins.
    UserIn(Vec<String>),
    /// Admit only during the half-open hour range `[start, end)`.  A range
    /// with `start > end` wraps around midnight.
    HoursBetween(u8, u8),
    /// Both sub-policies must admit.
    And(Box<UsagePolicy>, Box<UsagePolicy>),
    /// Either sub-policy may admit.
    Or(Box<UsagePolicy>, Box<UsagePolicy>),
    /// Admit exactly when the sub-policy rejects.
    Not(Box<UsagePolicy>),
}

impl UsagePolicy {
    /// Convenience constructor for the paper's example policy: public users
    /// may only use the machine when its load is below `threshold`; all
    /// other groups are always admitted.
    pub fn public_only_when_idle(threshold: f64) -> UsagePolicy {
        UsagePolicy::Or(
            Box::new(UsagePolicy::GroupNotIn(vec!["public".to_string()])),
            Box::new(UsagePolicy::LoadBelow(threshold)),
        )
    }

    /// Combines two policies with logical OR.
    pub fn or(self, other: UsagePolicy) -> UsagePolicy {
        UsagePolicy::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the policy against a request context.
    pub fn admits(&self, ctx: &PolicyContext<'_>) -> bool {
        match self {
            UsagePolicy::Always => true,
            UsagePolicy::Never => false,
            UsagePolicy::LoadBelow(threshold) => ctx.current_load < *threshold,
            UsagePolicy::GroupIn(groups) => groups
                .iter()
                .any(|g| g.eq_ignore_ascii_case(ctx.user_group)),
            UsagePolicy::GroupNotIn(groups) => !groups
                .iter()
                .any(|g| g.eq_ignore_ascii_case(ctx.user_group)),
            UsagePolicy::UserIn(users) => {
                users.iter().any(|u| u.eq_ignore_ascii_case(ctx.user_login))
            }
            UsagePolicy::HoursBetween(start, end) => {
                let h = ctx.hour_of_day % 24;
                if start <= end {
                    h >= *start && h < *end
                } else {
                    h >= *start || h < *end
                }
            }
            UsagePolicy::And(a, b) => a.admits(ctx) && b.admits(ctx),
            UsagePolicy::Or(a, b) => a.admits(ctx) || b.admits(ctx),
            UsagePolicy::Not(inner) => !inner.admits(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(group: &'static str, load: f64, hour: u8) -> PolicyContext<'static> {
        PolicyContext {
            user_group: group,
            user_login: "kapadia",
            current_load: load,
            hour_of_day: hour,
        }
    }

    #[test]
    fn always_and_never() {
        assert!(UsagePolicy::Always.admits(&ctx("public", 99.0, 3)));
        assert!(!UsagePolicy::Never.admits(&ctx("ece", 0.0, 3)));
    }

    #[test]
    fn load_threshold() {
        let p = UsagePolicy::LoadBelow(2.0);
        assert!(p.admits(&ctx("public", 1.9, 0)));
        assert!(!p.admits(&ctx("public", 2.0, 0)));
    }

    #[test]
    fn group_membership_is_case_insensitive() {
        let p = UsagePolicy::GroupIn(vec!["ECE".into(), "me".into()]);
        assert!(p.admits(&ctx("ece", 0.0, 0)));
        assert!(!p.admits(&ctx("physics", 0.0, 0)));
        let n = UsagePolicy::GroupNotIn(vec!["public".into()]);
        assert!(n.admits(&ctx("ece", 0.0, 0)));
        assert!(!n.admits(&ctx("PUBLIC", 0.0, 0)));
    }

    #[test]
    fn user_allow_list() {
        let p = UsagePolicy::UserIn(vec!["kapadia".into()]);
        assert!(p.admits(&ctx("ece", 0.0, 0)));
        let q = UsagePolicy::UserIn(vec!["royo".into()]);
        assert!(!q.admits(&ctx("ece", 0.0, 0)));
    }

    #[test]
    fn hour_ranges_including_wraparound() {
        let day = UsagePolicy::HoursBetween(8, 18);
        assert!(day.admits(&ctx("ece", 0.0, 8)));
        assert!(day.admits(&ctx("ece", 0.0, 17)));
        assert!(!day.admits(&ctx("ece", 0.0, 18)));
        assert!(!day.admits(&ctx("ece", 0.0, 3)));

        let night = UsagePolicy::HoursBetween(22, 6);
        assert!(night.admits(&ctx("ece", 0.0, 23)));
        assert!(night.admits(&ctx("ece", 0.0, 2)));
        assert!(!night.admits(&ctx("ece", 0.0, 12)));
    }

    #[test]
    fn paper_example_policy() {
        // Public users only below load 1.0; ece users always admitted.
        let p = UsagePolicy::public_only_when_idle(1.0);
        assert!(p.admits(&ctx("ece", 5.0, 0)));
        assert!(p.admits(&ctx("public", 0.5, 0)));
        assert!(!p.admits(&ctx("public", 1.5, 0)));
    }

    #[test]
    fn boolean_combinators() {
        let p = UsagePolicy::And(
            Box::new(UsagePolicy::GroupIn(vec!["ece".into()])),
            Box::new(UsagePolicy::LoadBelow(2.0)),
        );
        assert!(p.admits(&ctx("ece", 1.0, 0)));
        assert!(!p.admits(&ctx("ece", 3.0, 0)));
        assert!(!p.admits(&ctx("public", 1.0, 0)));

        let q = UsagePolicy::Never.or(UsagePolicy::Always);
        assert!(q.admits(&ctx("x", 0.0, 0)));

        let r = UsagePolicy::Not(Box::new(UsagePolicy::GroupIn(vec!["public".into()])));
        assert!(r.admits(&ctx("ece", 0.0, 0)));
        assert!(!r.admits(&ctx("public", 0.0, 0)));
    }

    #[test]
    fn default_is_always() {
        assert_eq!(UsagePolicy::default(), UsagePolicy::Always);
    }
}
