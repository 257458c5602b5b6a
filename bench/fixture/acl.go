package fixture

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// ACLConfig sizes the organization / group / resource-ACL database
// (the ifundeasy/test-rlp logical schema from SNIPPETS.md).
type ACLConfig struct {
	Orgs, Users, Groups, Resources, ACLs int
}

// DefaultACL is the benchmark's scale: 2000 principals with three
// queries each is a working set of 6000 (principal, query) pairs
// against a closure capped at 256 entries and a mask cache capped at
// 1024. It is a fifth of the issue's sketch (10 000 users) because
// every permit statement copies the whole permission table, so loading
// is quadratic in principals: 10 000 users take a minute to load, 2000
// take under three seconds, and set-up runs three times per run.
func DefaultACL() ACLConfig {
	return ACLConfig{Orgs: 20, Users: 2000, Groups: 200, Resources: 8000, ACLs: 16000}
}

// ACLEntry is one resource a group holds a relation on.
type ACLEntry struct {
	Res int
	Rel string
}

// ACL is a generated database: the statement script that loads it and
// the Go-side membership maps the brute-force oracle answers from.
type ACL struct {
	Cfg    ACLConfig
	Script string

	UserOrg    []int        // user -> home organization
	UserGroups [][]int      // user -> groups, ascending
	ResOrg     []int        // resource -> organization
	GroupACL   [][]ACLEntry // group -> entries, by (Res, Rel)
	probe      []int        // user -> the resource its point check asks for
}

// Principal is the name user u authenticates as.
func Principal(u int) string { return "u" + strconv.Itoa(u) }

// The three statements every principal runs.
const (
	QOrgList   = iota // list my organization's resources; OWNER is withheld
	QGroupJoin        // resources reachable through my groups (3-way join)
	QPoint            // point check on one resource
	ACLQueries
)

// ACLQueryNames labels the operation classes in reports.
var ACLQueryNames = [ACLQueries]string{"org_list", "group_join", "point"}

// GenACL builds the database for seed. Organizations own users, groups
// and resources round-robin, so every organization has the same number
// of each; the seed decides group memberships, resource owners, ACL
// edges and each user's point-check target.
//
// Authorization is expressed as Motro views: one view per organization
// over its resources (identifier and organization, not the owner),
// permitted to its members, and one view per group joining its
// membership rows to the resources it holds a relation on, permitted
// to its members.
func GenACL(seed int64, cfg ACLConfig) *ACL {
	rng := rand.New(rand.NewSource(seed))
	a := &ACL{
		Cfg:        cfg,
		UserOrg:    make([]int, cfg.Users),
		UserGroups: make([][]int, cfg.Users),
		ResOrg:     make([]int, cfg.Resources),
		GroupACL:   make([][]ACLEntry, cfg.Groups),
		probe:      make([]int, cfg.Users),
	}
	var b strings.Builder
	b.WriteString(`relation ORGS (ORG_ID) key (ORG_ID);
relation USERS (USER_ID, ORG_ID) key (USER_ID);
relation GROUPS (GROUP_ID, ORG_ID) key (GROUP_ID);
relation ORG_MEMBERS (ORG_ID, USER_ID, ROLE) key (ORG_ID, USER_ID);
relation GROUP_MEMBERS (GROUP_ID, USER_ID, ROLE) key (GROUP_ID, USER_ID);
relation RESOURCES (RES_ID, ORG_ID, OWNER) key (RES_ID);
relation RESOURCE_ACL (RES_ID, SUBJ_TYPE, SUBJ_ID, REL) key (RES_ID, SUBJ_TYPE, SUBJ_ID, REL);
`)
	for o := 0; o < cfg.Orgs; o++ {
		fmt.Fprintf(&b, "insert into ORGS values (%d);\n", o)
	}
	for g := 0; g < cfg.Groups; g++ {
		fmt.Fprintf(&b, "insert into GROUPS values (%d, %d);\n", g, g%cfg.Orgs)
	}
	groupsPerOrg := cfg.Groups / cfg.Orgs
	roles := []string{"member", "admin"}
	for u := 0; u < cfg.Users; u++ {
		org := u % cfg.Orgs
		a.UserOrg[u] = org
		fmt.Fprintf(&b, "insert into USERS values (%d, %d);\n", u, org)
		fmt.Fprintf(&b, "insert into ORG_MEMBERS values (%d, %d, %s);\n", org, u, roles[rng.Intn(2)])
		// Two distinct groups of the home organization: with the same
		// number for everyone, reply sizes depend little on which
		// principals the seed makes hot.
		picks := rng.Perm(groupsPerOrg)[:2]
		for _, k := range picks {
			a.UserGroups[u] = append(a.UserGroups[u], org+k*cfg.Orgs)
		}
		sort.Ints(a.UserGroups[u])
		for _, g := range a.UserGroups[u] {
			fmt.Fprintf(&b, "insert into GROUP_MEMBERS values (%d, %d, %s);\n", g, u, roles[rng.Intn(2)])
		}
	}
	for r := 0; r < cfg.Resources; r++ {
		a.ResOrg[r] = r % cfg.Orgs
		fmt.Fprintf(&b, "insert into RESOURCES values (%d, %d, %d);\n", r, a.ResOrg[r], rng.Intn(cfg.Users))
	}
	// ACL edges: three in four name a group of the resource's
	// organization, the rest a user directly. No view covers the user
	// edges; they are the rows the SUBJ_TYPE predicate must skip.
	rels := []string{"viewer", "manager"}
	seen := make(map[string]bool, cfg.ACLs)
	for i := 0; i < cfg.ACLs; i++ {
		r := rng.Intn(cfg.Resources)
		rel := rels[rng.Intn(2)]
		typ, subj := "group", a.ResOrg[r]+rng.Intn(groupsPerOrg)*cfg.Orgs
		if rng.Intn(4) == 0 {
			typ, subj = "user", rng.Intn(cfg.Users)
		}
		key := fmt.Sprintf("%d %s %d %s", r, typ, subj, rel)
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(&b, "insert into RESOURCE_ACL values (%d, %s, %d, %s);\n", r, typ, subj, rel)
		if typ == "group" {
			a.GroupACL[subj] = append(a.GroupACL[subj], ACLEntry{Res: r, Rel: rel})
		}
	}
	for g := range a.GroupACL {
		es := a.GroupACL[g]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Res != es[j].Res {
				return es[i].Res < es[j].Res
			}
			return es[i].Rel < es[j].Rel
		})
	}
	for o := 0; o < cfg.Orgs; o++ {
		fmt.Fprintf(&b, "view ORG%d (RESOURCES.RES_ID, RESOURCES.ORG_ID) where RESOURCES.ORG_ID = %d;\n", o, o)
	}
	for g := 0; g < cfg.Groups; g++ {
		fmt.Fprintf(&b, "view GRP%d (GROUP_MEMBERS.GROUP_ID, GROUP_MEMBERS.USER_ID, "+
			"RESOURCE_ACL.RES_ID, RESOURCE_ACL.SUBJ_ID, RESOURCE_ACL.REL, RESOURCES.RES_ID, RESOURCES.ORG_ID) "+
			"where GROUP_MEMBERS.GROUP_ID = %d and RESOURCE_ACL.SUBJ_TYPE = group "+
			"and RESOURCE_ACL.SUBJ_ID = GROUP_MEMBERS.GROUP_ID and RESOURCE_ACL.RES_ID = RESOURCES.RES_ID;\n", g, g)
	}
	resPerOrg := cfg.Resources / cfg.Orgs
	for u := 0; u < cfg.Users; u++ {
		fmt.Fprintf(&b, "permit ORG%d to %s;\n", a.UserOrg[u], Principal(u))
		for _, g := range a.UserGroups[u] {
			fmt.Fprintf(&b, "permit GRP%d to %s;\n", g, Principal(u))
		}
		// Even users probe a resource of their own organization (one row
		// delivered), odd users one of the next organization (none).
		org := a.UserOrg[u]
		if u%2 == 1 {
			org = (org + 1) % cfg.Orgs
		}
		a.probe[u] = org + rng.Intn(resPerOrg)*cfg.Orgs
	}
	a.Script = b.String()
	return a
}

// Query renders statement q of user u.
func (a *ACL) Query(u, q int) string {
	switch q {
	case QOrgList:
		return fmt.Sprintf("retrieve (RESOURCES.RES_ID, RESOURCES.ORG_ID, RESOURCES.OWNER) "+
			"where RESOURCES.ORG_ID = %d", a.UserOrg[u])
	case QGroupJoin:
		return fmt.Sprintf("retrieve (GROUP_MEMBERS.GROUP_ID, RESOURCE_ACL.SUBJ_ID, RESOURCE_ACL.RES_ID, "+
			"RESOURCE_ACL.REL, RESOURCES.ORG_ID, RESOURCES.OWNER) "+
			"where GROUP_MEMBERS.USER_ID = %d and RESOURCE_ACL.SUBJ_ID = GROUP_MEMBERS.GROUP_ID "+
			"and RESOURCE_ACL.SUBJ_TYPE = group and RESOURCE_ACL.RES_ID = RESOURCES.RES_ID", u)
	default:
		return fmt.Sprintf("retrieve (RESOURCES.RES_ID, RESOURCES.ORG_ID) where RESOURCES.RES_ID = %d", a.probe[u])
	}
}

// Expect is the oracle: the rows statement q must deliver to user u,
// in the server's canonical order, computed from the membership maps
// alone. Withheld cells render as "-".
func (a *ACL) Expect(u, q int) [][]string {
	var rows [][]string
	switch q {
	case QOrgList:
		org := a.UserOrg[u]
		for r := org; r < a.Cfg.Resources; r += a.Cfg.Orgs {
			rows = append(rows, []string{strconv.Itoa(r), strconv.Itoa(org), "-"})
		}
	case QGroupJoin:
		for _, g := range a.UserGroups[u] {
			gs := strconv.Itoa(g)
			for _, e := range a.GroupACL[g] {
				rows = append(rows, []string{gs, gs, strconv.Itoa(e.Res), e.Rel, strconv.Itoa(a.ResOrg[e.Res]), "-"})
			}
		}
	default:
		if r := a.probe[u]; a.ResOrg[r] == a.UserOrg[u] {
			rows = append(rows, []string{strconv.Itoa(r), strconv.Itoa(a.ResOrg[r])})
		}
	}
	return rows
}
